//! The paper's own evaluation: the `repro all` catalog of figure and
//! table generators, and paper fidelity. Fidelity compares
//! `System::decode_token` on the paper's configurations with the
//! paper-transcribed values in `bench::paper`; there is no hardware
//! measurement to compare with.

use bench::{figures, paper, TextTable};
use cambricon_llm::{System, SystemConfig};
use llm_workload::{zoo, ModelSpec, Quant};
use tiling::{Strategy, TileShape};

/// Context length the paper evaluates decode speed at.
const SEQ: usize = 1000;

/// One catalog entry: id and generator.
pub type Generator = (&'static str, fn() -> TextTable);

/// The `repro all` catalog, in its order, accuracy figures in quick mode.
pub const CATALOG: [Generator; 20] = [
    ("fig1a", figures::fig1a),
    ("fig1b", figures::fig1b),
    ("fig3a", figures::fig3a),
    ("fig3b", || figures::fig3b(true)),
    ("table1", figures::table1),
    ("table2", figures::table2),
    ("table3", figures::table3),
    ("table4", figures::table4),
    ("fig9a", figures::fig9a),
    ("fig9b", figures::fig9b),
    ("fig10", || figures::fig10(true)),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("fig16", figures::fig16),
    ("table5", figures::table5),
    ("prefill", figures::prefill_table),
    ("serving", figures::serving_table),
];

/// Mean absolute percentage errors against the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Over the tuning set: Fig. 9a/9b decode speeds.
    pub tuning_pct: f64,
    /// Over the held-out set: Fig. 11 W4A16 speeds, the Fig. 12/13/14
    /// ablation speeds and Fig. 16a per-token traffic.
    pub heldout_pct: f64,
    /// Values compared (tuning, held-out).
    pub counts: (usize, usize),
    /// Whether every row of the paper tables named the model simulated
    /// for it.
    pub rows_match: bool,
}

impl Fidelity {
    /// Whether both errors are finite and every row lined up.
    pub fn is_sound(&self) -> bool {
        self.tuning_pct.is_finite() && self.heldout_pct.is_finite() && self.rows_match
    }
}

#[derive(Default)]
struct ErrorSet {
    sum: f64,
    n: usize,
}

impl ErrorSet {
    fn add(&mut self, ours: f64, reference: f64) {
        self.sum += ((ours - reference) / reference).abs() * 100.0;
        self.n += 1;
    }

    fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }
}

/// Evaluates fidelity on fresh systems (cold pricing, as users pay it).
///
/// The tuning set is what the timing model was validated against
/// (Fig. 9). Fig. 16b energy is excluded: `core::energy` is fitted to
/// it. Everything else in `bench::paper` with a simulated counterpart is
/// held out, except the with-every-feature columns of Fig. 12, 13 and
/// 14, which repeat Fig. 9's S values.
pub fn fidelity() -> Fidelity {
    let s = SystemConfig::cambricon_s();
    let l = SystemConfig::cambricon_l();
    let mut sys_s = System::new(s);
    let mut sys_m = System::new(SystemConfig::cambricon_m());
    let mut sys_l = System::new(l);
    let mut rows_match = true;
    let mut tuning = ErrorSet::default();
    for (model, row) in zoo::opt_family().iter().zip(paper::FIG9A) {
        rows_match &= model.name == row.0;
        tuning.add(sys_s.decode_speed(model, SEQ), row.1);
        tuning.add(sys_m.decode_speed(model, SEQ), row.2);
        tuning.add(sys_l.decode_speed(model, SEQ), row.3);
    }
    for (model, row) in zoo::llama_family().iter().zip(paper::FIG9B) {
        rows_match &= model.name == row.0;
        tuning.add(sys_s.decode_speed(model, SEQ), row.1);
        tuning.add(sys_m.decode_speed(model, SEQ), row.2);
        tuning.add(sys_l.decode_speed(model, SEQ), row.3);
    }

    let mut s4 = System::new(s.with_quant(Quant::W4A16));
    let mut l4 = System::new(l.with_quant(Quant::W4A16));
    let mut noslice = System::new(s.without_read_slice());
    let mut wide = System::new(s.with_tile(TileShape {
        h_req: 128,
        w_req: 4096,
    }));
    let mut tall = System::new(s.with_tile(TileShape {
        h_req: 4096,
        w_req: 128,
    }));
    let mut flash_only = System::new(s.with_strategy(Strategy::FlashOnly));
    let mut heldout = ErrorSet::default();
    let models: Vec<ModelSpec> = zoo::all();
    for (i, model) in models.iter().enumerate() {
        let (f11, f12, f13, f14, f16) = (
            paper::FIG11[i],
            paper::FIG12[i],
            paper::FIG13[i],
            paper::FIG14[i],
            paper::FIG16A[i],
        );
        rows_match &= [f11.0, f12.0, f13.0, f14.0, f16.0]
            .iter()
            .all(|name| *name == model.name);
        heldout.add(s4.decode_speed(model, SEQ), f11.2);
        heldout.add(l4.decode_speed(model, SEQ), f11.4);
        // Columns 1 of Fig. 12, 13 and 14 are the S configuration with
        // every feature on: Fig. 9's tuning values again, so not held out.
        heldout.add(noslice.decode_speed(model, SEQ), f12.2);
        heldout.add(wide.decode_speed(model, SEQ), f13.2);
        heldout.add(tall.decode_speed(model, SEQ), f13.3);
        heldout.add(flash_only.decode_speed(model, SEQ), f14.2);
        let traffic = sys_s.decode_token(model, SEQ).traffic;
        heldout.add(traffic.transferred_bytes() as f64 / 1e9, f16.1);
    }
    Fidelity {
        tuning_pct: tuning.mean(),
        heldout_pct: heldout.mean(),
        counts: (tuning.n, heldout.n),
        rows_match,
    }
}
