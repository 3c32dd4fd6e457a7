//! Direction predictors: the common trait plus two classic reference
//! predictors. The BPU always uses TAGE-L; [`Bimodal`] and [`Gshare`]
//! stay as the baselines the prediction-quality tests rank it against.

use crate::history::GlobalHistory;

/// A conditional-branch direction predictor.
///
/// `predict` is called at fetch with the current speculative history;
/// `update` is called at resolve with the *history the prediction was
/// made under* (the pipeline snapshots it), so implementations recompute
/// their table indices deterministically rather than carrying metadata.
pub trait DirectionPredictor {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&mut self, pc: u64, hist: &GlobalHistory) -> bool;

    /// Trains the predictor with the resolved outcome. `hist` must be
    /// the history at prediction time.
    fn update(&mut self, pc: u64, hist: &GlobalHistory, taken: bool);
}

#[inline]
fn ctr_update(ctr: &mut u8, taken: bool, max: u8) {
    if taken {
        if *ctr < max {
            *ctr += 1;
        }
    } else if *ctr > 0 {
        *ctr -= 1;
    }
}

/// Classic bimodal predictor: a table of 2-bit saturating counters
/// indexed by PC.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        Bimodal { table: vec![1; entries], mask: entries as u64 - 1 }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&mut self, pc: u64, _hist: &GlobalHistory) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: u64, _hist: &GlobalHistory, taken: bool) {
        let i = self.index(pc);
        ctr_update(&mut self.table[i], taken, 3);
    }
}

/// Gshare: 2-bit counters indexed by `pc ^ folded(global history)`.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    index_bits: usize,
    hist_len: usize,
}

impl Gshare {
    /// Creates a gshare predictor with `2^index_bits` counters using
    /// `hist_len` history bits.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    #[must_use]
    pub fn new(index_bits: usize, hist_len: usize) -> Self {
        assert!(index_bits > 0 && index_bits <= 24, "index bits out of range");
        Gshare { table: vec![1; 1 << index_bits], index_bits, hist_len }
    }

    fn index(&self, pc: u64, hist: &GlobalHistory) -> usize {
        let h = hist.fold(self.hist_len, self.index_bits);
        let mask = (1u64 << self.index_bits) - 1;
        (((pc >> 2) ^ h) & mask) as usize
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&mut self, pc: u64, hist: &GlobalHistory) -> bool {
        self.table[self.index(pc, hist)] >= 2
    }

    fn update(&mut self, pc: u64, hist: &GlobalHistory, taken: bool) {
        let i = self.index(pc, hist);
        ctr_update(&mut self.table[i], taken, 3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train<P: DirectionPredictor>(p: &mut P, pc: u64, pattern: &[bool], reps: usize) -> f64 {
        let mut hist = GlobalHistory::new();
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..reps {
            for &t in pattern {
                let pred = p.predict(pc, &hist);
                p.update(pc, &hist, t);
                hist.push(t);
                if pred == t {
                    correct += 1;
                }
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = Bimodal::new(1024);
        let acc = train(&mut p, 0x400, &[true, true, true, true, true, false], 200);
        assert!(acc > 0.80, "bimodal accuracy {acc}");
    }

    #[test]
    fn bimodal_cannot_learn_alternation() {
        let mut p = Bimodal::new(1024);
        let acc = train(&mut p, 0x400, &[true, false], 500);
        assert!(acc < 0.7, "bimodal should fail on alternation, got {acc}");
    }

    #[test]
    fn gshare_learns_alternation() {
        let mut p = Gshare::new(12, 12);
        let acc = train(&mut p, 0x400, &[true, false], 500);
        assert!(acc > 0.95, "gshare accuracy on alternation {acc}");
    }

    #[test]
    fn gshare_learns_short_patterns() {
        let mut p = Gshare::new(12, 12);
        let acc = train(&mut p, 0x80, &[true, true, false, true, false, false], 400);
        assert!(acc > 0.9, "gshare pattern accuracy {acc}");
    }

    #[test]
    fn predictors_are_per_pc() {
        let mut p = Bimodal::new(1024);
        let hist = GlobalHistory::new();
        for _ in 0..10 {
            p.update(0x100, &hist, true);
            p.update(0x200, &hist, false);
        }
        assert!(p.predict(0x100, &hist));
        assert!(!p.predict(0x200, &hist));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_table_panics() {
        let _ = Bimodal::new(1000);
    }
}
