//! Experiment scale profiles.

/// Dataset/training sizes for one experiment run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Profile name, `"quick"` or `"paper"`; the soaks size their streams by it.
    pub name: &'static str,
    /// Training samples for the GTSRB/CIFAR analogues.
    pub train_size: usize,
    /// Test samples evaluated.
    pub test_size: usize,
    /// Training epochs per model.
    pub epochs: usize,
    /// Independent repetitions (seeds) per configuration.
    pub seeds: usize,
    /// Fault amounts swept by the `fig07`-style experiments.
    pub amounts: Vec<f32>,
}

impl Scale {
    /// Fast profile: a full figure regenerates in minutes on one core.
    pub fn quick() -> Self {
        Self {
            name: "quick",
            train_size: 860,
            test_size: 250,
            epochs: 8,
            seeds: 1,
            amounts: vec![0.0, 0.3, 0.5],
        }
    }

    /// Larger profile, closer to the paper's sweep (0–50 % in 10 % steps,
    /// multiple seeds).
    pub fn paper() -> Self {
        Self {
            name: "paper",
            train_size: 1290,
            test_size: 430,
            epochs: 14,
            seeds: 3,
            amounts: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        }
    }

    /// Reads `REMIX_SCALE` (`quick` | `paper`), defaulting to quick.
    pub fn from_env() -> Self {
        match std::env::var("REMIX_SCALE").as_deref() {
            Ok("paper") => Self::paper(),
            _ => Self::quick(),
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(p.train_size > q.train_size);
        assert!(p.amounts.len() > q.amounts.len());
        assert!(q.amounts.contains(&0.0) && q.amounts.contains(&0.5));
    }
}
