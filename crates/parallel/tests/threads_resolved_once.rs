//! `num_threads` resolves `REMIX_THREADS` once per process. This file is
//! its own test binary, so nothing else reads the count before it pins it.

#[test]
fn a_later_remix_threads_does_not_change_the_resolved_count() {
    std::env::set_var("REMIX_THREADS", "3");
    assert_eq!(remix_parallel::num_threads(), 3);
    std::env::set_var("REMIX_THREADS", "5");
    assert_eq!(remix_parallel::num_threads(), 3);
    assert_eq!(remix_parallel::resolve_threads(0), 3);
    std::env::remove_var("REMIX_THREADS");
    assert_eq!(remix_parallel::num_threads(), 3);
}
