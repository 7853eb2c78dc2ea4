//! The job plan: the functional executor's work decomposition, declared
//! once.
//!
//! An [`Epoch`] is one `ExecutionEngine` dispatch: a batch of concurrent
//! jobs with an implicit join at the end, shaped by tensor shapes and lane
//! geometry alone. The executor's leaf steps dispatch the epochs that
//! [`conv_epochs`], [`requant_epoch`], [`pool_epoch`] and
//! [`code_requant_epoch`] build; [`job_plan`] calls the same constructors
//! over [`walk_layer`], and the `nc-verify` shard graph expands its list.

use std::convert::Infallible;
use std::ops::Range;

use nc_dnn::walk::{concat_shapes, walk_layer, Passes, Pending};
use nc_dnn::{Conv2d, ConvSpec, MixedBlock, Model, Pool2d, PoolKind, Shape};
use nc_sram::COLS;

use crate::layout::Pass;
use crate::mapping::conv_lane_geometry;

/// The pass a set of jobs implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// MAC + grouped reduction + accumulator assembly (one job per output
    /// window). The join that seals it is the inter-array reduce barrier.
    Mac,
    /// Inter-array min/max ranging (one job per 256-lane chunk), the only
    /// kind that writes no host buffer; the reduce barrier must dominate it.
    Ranging,
    /// Accumulator requantization (one job per 256-lane chunk).
    Requant,
    /// Code-to-code requantization of a pool-final branch.
    CodeRequant,
    /// Max/average pooling (one job per 256-lane chunk).
    Pool,
}

/// One engine dispatch: [`Epoch::jobs`] concurrent jobs over `slots`
/// host-buffer slots, `slots_per_job` consecutive slots each (the last job
/// may get fewer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// The pass the jobs implement.
    pub kind: EpochKind,
    /// Label (e.g. `"Conv2d_1a_3x3/mac"`).
    pub label: String,
    /// Name of the executor's `functional.op` span for this dispatch.
    pub op: &'static str,
    /// Slots the jobs write, or for ranging the accumulator slots they read.
    pub slots: usize,
    /// Slots per job: `m` for a MAC job, one 256-lane array run otherwise.
    pub slots_per_job: usize,
    /// What every job checks out of the pool: `(pass layout, arrays)`.
    pub checkouts: Vec<(Pass, u32)>,
    /// The [`job_plan`] index of the epoch whose buffer the jobs read
    /// (constructors, blind to the order, leave it `None`).
    pub reads: Option<usize>,
}

impl Epoch {
    /// Number of jobs.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.slots.div_ceil(self.slots_per_job.max(1))
    }

    /// The slots job `i` reads or writes.
    #[must_use]
    pub fn job_slots(&self, i: usize) -> Range<usize> {
        let start = i * self.slots_per_job;
        start..(start + self.slots_per_job).min(self.slots)
    }

    /// Total pool checkouts of the epoch.
    #[must_use]
    pub fn acquires(&self) -> u64 {
        let per_job: u64 = self.checkouts.iter().map(|&(_, n)| u64::from(n)).sum();
        self.jobs() as u64 * per_job
    }
}

/// A convolution over an `input`-shaped tensor: the MAC epoch (per output
/// window, the MAC+reduce arrays of every filter run, then one assembly
/// array per filter) and the ranging epoch behind its reduce barrier (one
/// array per min/max tree).
#[must_use]
pub fn conv_epochs(spec: &ConvSpec, input: Shape) -> [Epoch; 2] {
    let slots = spec.out_shape(input).len();
    let geom = conv_lane_geometry(spec);
    let runs = geom.runs(spec.m).count() * geom.arrays_per_filter;
    let mac = Epoch {
        kind: EpochKind::Mac,
        label: format!("{}/mac", spec.name),
        op: "mac-reduce",
        slots,
        slots_per_job: spec.m,
        checkouts: vec![
            (Pass::MacReduce, runs as u32),
            (Pass::AssembleAcc, spec.m as u32),
        ],
        reads: None,
    };
    let ranging = chunked(EpochKind::Ranging, &spec.name, slots, (Pass::Ranging, 2));
    [mac, ranging]
}

/// Requantization of a convolution's `acc`-shaped accumulators.
#[must_use]
pub fn requant_epoch(spec: &ConvSpec, acc: Shape) -> Epoch {
    let checkout = (Pass::Requant, 1);
    chunked(EpochKind::Requant, &spec.name, acc.len(), checkout)
}

/// Pooling over an `input`-shaped tensor, one output per lane.
#[must_use]
pub fn pool_epoch(pool: &Pool2d, input: Shape) -> Epoch {
    let pass = match pool.kind {
        PoolKind::Max => Pass::PoolMax,
        PoolKind::Avg => Pass::PoolAvg,
    };
    let slots = pool.out_shape(input).len();
    chunked(EpochKind::Pool, &pool.name, slots, (pass, 1))
}

/// Code-to-code requantization of a pool-final branch's `codes`.
#[must_use]
pub fn code_requant_epoch(pool: &Pool2d, codes: Shape) -> Epoch {
    let checkout = (Pass::CodeRequant, 1);
    chunked(EpochKind::CodeRequant, &pool.name, codes.len(), checkout)
}

/// One job per 256-lane chunk of `slots`, each making `checkout`, on the
/// sub-layer named `unit`.
fn chunked(kind: EpochKind, unit: &str, slots: usize, checkout: (Pass, u32)) -> Epoch {
    let (step, op) = match checkout.0 {
        Pass::Ranging => ("ranging", "ranging"),
        Pass::Requant => ("requant", "requantize"),
        Pass::CodeRequant => ("code_requant", "code-requant"),
        Pass::PoolMax => ("pool", "pool-max"),
        Pass::PoolAvg => ("pool", "pool-avg"),
        Pass::MacReduce | Pass::AssembleAcc => unreachable!("MAC jobs run one per window"),
    };
    Epoch {
        kind,
        label: format!("{unit}/{step}"),
        op,
        slots,
        slots_per_job: COLS,
        checkouts: vec![checkout],
        reads: None,
    }
}

/// Every epoch of `model`'s functional execution in dispatch order, with
/// [`Epoch::reads`] set. Shape-only: nothing executes.
#[must_use]
pub fn job_plan(model: &Model) -> Vec<Epoch> {
    let mut plan = Plan(Vec::new());
    let mut cur = (model.input_shape, None);
    for layer in &model.layers {
        let Ok(out) = walk_layer(&mut plan, layer, &cur);
        cur = out;
    }
    plan.0
}

/// A tensor of the planning walk: its shape and the index of the epoch
/// that wrote it (`None` for the model input and concatenated block
/// outputs, which no epoch reads as a buffer).
type Tensor = (Shape, Option<usize>);

/// The shape-only [`Passes`] behind [`job_plan`].
struct Plan(Vec<Epoch>);

impl Plan {
    /// Appends `epoch`, reading the buffer of epoch `reads`, and returns
    /// the `shape`d tensor it writes.
    fn push(&mut self, epoch: Epoch, reads: Option<usize>, shape: Shape) -> Tensor {
        self.0.push(Epoch { reads, ..epoch });
        (shape, Some(self.0.len() - 1))
    }
}

impl<'m> Passes<'m> for Plan {
    type Act = Tensor;
    type Acc = Tensor;
    type Error = Infallible;

    fn conv(&mut self, conv: &'m Conv2d, &(input, _): &Tensor) -> Result<Tensor, Infallible> {
        let [mac, ranging] = conv_epochs(&conv.spec, input);
        let acc = self.push(mac, None, conv.spec.out_shape(input));
        self.push(ranging, acc.1, acc.0);
        Ok(acc)
    }

    fn requantize(&mut self, conv: &'m Conv2d, (acc, mac): Tensor) -> Result<Tensor, Infallible> {
        Ok(self.push(requant_epoch(&conv.spec, acc), mac, acc))
    }

    /// Windows are gathered host-side before dispatch, so the pool epoch
    /// reads no buffer.
    fn pool(&mut self, pool: &'m Pool2d, &(input, _): &Tensor) -> Result<Tensor, Infallible> {
        Ok(self.push(pool_epoch(pool, input), None, pool.out_shape(input)))
    }

    fn join(
        &mut self,
        _block: &'m MixedBlock,
        pending: Vec<Pending<'m, Tensor, Tensor>>,
    ) -> Result<Tensor, Infallible> {
        let mut parts = Vec::with_capacity(pending.len());
        for p in pending {
            parts.push(match p {
                Pending::Conv(conv, acc) => self.requantize(conv, acc)?.0,
                Pending::Pool(pool, (codes, writer)) => {
                    self.push(code_requant_epoch(pool, codes), writer, codes).0
                }
            });
        }
        Ok((concat_shapes(parts), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::workload::mini_inception;

    #[test]
    fn reading_epochs_point_back_at_their_writers() {
        let plan = job_plan(&mini_inception(3));
        for (i, e) in plan.iter().enumerate() {
            let writer = e.reads.map(|r| &plan[r]);
            match e.kind {
                EpochKind::Mac | EpochKind::Pool => assert_eq!(e.reads, None, "{}", e.label),
                EpochKind::Ranging => assert_eq!(e.reads, Some(i - 1), "{}", e.label),
                EpochKind::Requant => {
                    assert_eq!(writer.map(|w| w.kind), Some(EpochKind::Mac), "{}", e.label);
                }
                EpochKind::CodeRequant => {
                    assert_eq!(writer.map(|w| w.kind), Some(EpochKind::Pool), "{}", e.label);
                }
            }
            if let Some(w) = writer {
                assert!(
                    w.kind != EpochKind::Ranging && w.slots == e.slots,
                    "{}",
                    e.label
                );
            }
        }
        assert!(plan.iter().any(|e| e.kind == EpochKind::CodeRequant));
    }
}
