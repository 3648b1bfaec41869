//! Each ensemble member's XAI stream, and SmoothGrad's draws from it, drawn
//! once per [`crate::Remix`].
//!
//! Every input restarts its member's stream ([`crate::Remix::xai_rng`]),
//! and SmoothGrad reads nothing from it but a run of standard-normal draws
//! from its start. So a member's draws are a pure function of the
//! `(seed, member name)` pair: they are drawn on first use and every later
//! input, at every rung and input size, reads a prefix.

use rand::{rngs::StdRng, SeedableRng};
use remix_tensor::{fnv1a64, splitmix64, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The XAI streams of one seed, keyed by member name, with the first
/// standard-normal draws of each stream that has been asked for them, one
/// table per name. Clones share the tables; the lock is held only while a
/// table is looked up or drawn, never across a model call.
#[derive(Clone)]
pub(crate) struct XaiStreams {
    seed: u64,
    normals: Arc<Mutex<HashMap<String, Arc<[f32]>>>>,
}

impl XaiStreams {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            seed,
            normals: Arc::default(),
        }
    }

    /// A fresh copy of `name`'s stream.
    pub(crate) fn rng(&self, name: &str) -> StdRng {
        StdRng::seed_from_u64(splitmix64(self.seed ^ fnv1a64(name.as_bytes())))
    }

    /// The first `count` standard-normal draws of `name`'s stream, as
    /// [`Tensor::randn`] with σ = 1 makes them. Only the longest table
    /// asked for is kept: a longer request draws the stream again to the
    /// longer length, whose prefix is the shorter table, bit for bit.
    pub(crate) fn normals(&self, name: &str, count: usize) -> Arc<[f32]> {
        let mut tables = self.normals.lock().unwrap_or_else(|e| e.into_inner());
        match tables.get(name) {
            Some(table) if table.len() >= count => Arc::clone(table),
            _ => {
                let draws = Tensor::randn(&[count], 1.0, &mut self.rng(name));
                let table: Arc<[f32]> = draws.into_vec().into();
                tables.insert(name.to_owned(), Arc::clone(&table));
                table
            }
        }
    }

    /// The length of each drawn table, by member name.
    #[cfg(test)]
    pub(crate) fn lengths(&self) -> HashMap<String, usize> {
        let tables = self.normals.lock().unwrap_or_else(|e| e.into_inner());
        tables
            .iter()
            .map(|(name, t)| (name.clone(), t.len()))
            .collect()
    }
}

impl fmt::Debug for XaiStreams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tables = self.normals.lock().map_or(0, |t| t.len());
        f.debug_struct("XaiStreams")
            .field("seed", &self.seed)
            .field("tables", &tables)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normals_are_the_streams_draws_and_grow_by_prefix() {
        let streams = XaiStreams::new(11);
        let expected = Tensor::randn(&[40], 1.0, &mut streams.rng("m"));
        let short = streams.normals("m", 5);
        assert_eq!(&short[..], &expected.data()[..5]);
        // A shorter request reads the kept table; a longer one replaces it.
        assert!(Arc::ptr_eq(&streams.normals("m", 3), &short));
        let long = streams.normals("m", 40);
        assert_eq!(&long[..], expected.data());
        assert!(Arc::ptr_eq(&streams.normals("m", 5), &long));
        assert_eq!(streams.lengths(), HashMap::from([("m".to_owned(), 40)]));
        // Clones share the tables; another name has its own stream.
        let clone = streams.clone();
        assert!(Arc::ptr_eq(&clone.normals("m", 40), &long));
        assert_ne!(clone.normals("n", 5)[..], short[..]);
        assert_eq!(format!("{streams:?}"), "XaiStreams { seed: 11, tables: 2 }");
    }
}
