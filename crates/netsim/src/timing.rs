//! Phase timing: the recorder behind the paper's Fig 7 execution-time
//! distribution (owners: train / upload / send-CID; buyers: deploy /
//! download-CIDs / retrieve / aggregate+pay).

use crate::clock::SimDuration;
use std::collections::BTreeMap;

/// Accumulates named phase durations on a virtual clock.
#[derive(Debug, Clone, Default)]
pub struct PhaseRecorder {
    phases: BTreeMap<String, SimDuration>,
    order: Vec<String>,
}

impl PhaseRecorder {
    /// An empty recorder.
    pub fn new() -> PhaseRecorder {
        PhaseRecorder::default()
    }

    /// Adds `duration` to a phase (creating it on first use).
    pub fn add(&mut self, phase: &str, duration: SimDuration) {
        if !self.phases.contains_key(phase) {
            self.order.push(phase.to_string());
        }
        let entry = self.phases.entry(phase.to_string()).or_default();
        *entry = entry.saturating_add(duration);
    }

    /// Duration of one phase (zero if absent).
    pub fn get(&self, phase: &str) -> SimDuration {
        self.phases.get(phase).copied().unwrap_or_default()
    }

    /// Total across phases.
    pub fn total(&self) -> SimDuration {
        self.phases
            .values()
            .fold(SimDuration::ZERO, |acc, &d| acc.saturating_add(d))
    }

    /// `(phase, duration, share)` rows in first-use order — the pie chart of
    /// Fig 7.
    pub fn breakdown(&self) -> Vec<(String, SimDuration, f64)> {
        let total = self.total().as_secs_f64().max(1e-12);
        self.order
            .iter()
            .map(|p| {
                let d = self.get(p);
                (p.clone(), d, d.as_secs_f64() / total)
            })
            .collect()
    }

    /// Renders an ASCII table of the breakdown.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for (phase, duration, share) in self.breakdown() {
            out.push_str(&format!(
                "  {:<28} {:>10.3} s  {:>5.1} %\n",
                phase,
                duration.as_secs_f64(),
                share * 100.0
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>10.3} s  100.0 %\n",
            "total",
            self.total().as_secs_f64()
        ));
        out
    }
}

/// A GPU/CPU compute model: converts work units into virtual time.
/// Calibrated to the paper's 2×RTX A5000 server for local MLP training.
#[derive(Debug, Clone, Copy)]
pub struct ComputeModel {
    /// Training throughput in examples/second (forward+backward, batch 64).
    pub train_examples_per_sec: f64,
    /// Inference throughput in examples/second.
    pub infer_examples_per_sec: f64,
}

impl ComputeModel {
    /// An RTX A5000-class accelerator running the paper's small MLP.
    pub fn rtx_a5000() -> ComputeModel {
        ComputeModel {
            train_examples_per_sec: 250_000.0,
            infer_examples_per_sec: 2_000_000.0,
        }
    }

    /// A laptop-class CPU (model owners without GPUs).
    pub fn laptop_cpu() -> ComputeModel {
        ComputeModel {
            train_examples_per_sec: 25_000.0,
            infer_examples_per_sec: 250_000.0,
        }
    }

    /// Virtual time to train `examples × epochs`.
    pub fn training_time(&self, examples: usize, epochs: usize) -> SimDuration {
        SimDuration::from_secs_f64(examples as f64 * epochs as f64 / self.train_examples_per_sec)
    }

    /// Virtual time to run inference over `examples`.
    pub fn inference_time(&self, examples: usize) -> SimDuration {
        SimDuration::from_secs_f64(examples as f64 / self.infer_examples_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_phases() {
        let mut rec = PhaseRecorder::new();
        rec.add("train", SimDuration::from_secs(3));
        rec.add("upload", SimDuration::from_secs(1));
        rec.add("train", SimDuration::from_secs(2));
        assert_eq!(rec.get("train"), SimDuration::from_secs(5));
        assert_eq!(rec.total(), SimDuration::from_secs(6));
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let mut rec = PhaseRecorder::new();
        rec.add("a", SimDuration::from_secs(1));
        rec.add("b", SimDuration::from_secs(3));
        let rows = rec.breakdown();
        let total_share: f64 = rows.iter().map(|(_, _, s)| s).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
        assert_eq!(rows[0].0, "a"); // first-use order preserved
        assert!((rows[1].2 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn render_contains_phases() {
        let mut rec = PhaseRecorder::new();
        rec.add("blockchain wait", SimDuration::from_secs(24));
        let text = rec.render("Owner");
        assert!(text.contains("blockchain wait"));
        assert!(text.contains("100.0 %"));
    }

    #[test]
    fn compute_model_scales() {
        let gpu = ComputeModel::rtx_a5000();
        let cpu = ComputeModel::laptop_cpu();
        // Paper's setup: 6 000 samples × 10 epochs.
        let gpu_t = gpu.training_time(6_000, 10);
        let cpu_t = cpu.training_time(6_000, 10);
        assert!(gpu_t < cpu_t);
        assert!((gpu_t.as_secs_f64() - 0.24).abs() < 0.01);
        assert!(gpu.inference_time(10_000) < SimDuration::from_secs(1));
    }
}
