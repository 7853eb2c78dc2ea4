//! The shard-graph IR: the Threaded engine's concurrent work decomposition
//! as a verifiable artifact.
//!
//! The functional executor runs each pass of a layer as a batch of
//! independent shard jobs dispatched through one
//! `neural_cache::ExecutionEngine::run` call (an **epoch** here), with an
//! implicit join — a barrier — between consecutive epochs. Each shard
//! checks a fixed number of arrays out of the shared `ArrayPool`, touches
//! only the word-line regions of its pass layout
//! (`neural_cache::layout`), writes a private slice of the host-side
//! accumulator buffer, and returns every array before the job ends. The
//! inter-array reduce barrier of Section IV-D is the join between a MAC
//! epoch and its ranging epoch.
//!
//! [`ShardGraph::from_model`] derives that decomposition from the model
//! alone. It is a second implementation of the executor's leaf passes
//! over the one sub-layer sequencing both share
//! ([`nc_dnn::walk::walk_layer`]), and its per-window checkout count is the
//! executor's own ([`neural_cache::LaneGeometry::mac_job_checkouts`]). So
//! the epoch order follows from the walk rather than from a hand-kept copy,
//! the happens-before checker ([`crate::hb`]) can prove the concurrency
//! claims statically, and the executed leg can reconcile the predicted
//! checkout count against the real pool counters
//! ([`nc_sram::PoolStats`]).

use std::convert::Infallible;

use nc_dnn::walk::{concat_shapes, walk_layer, Passes, Pending};
use nc_dnn::{Conv2d, MixedBlock, Model, Pool2d, PoolKind, Shape};
use nc_sram::COLS;
use neural_cache::layout::{all_layouts_with_dump, DUMP_ROW};
use neural_cache::mapping::conv_lane_geometry;

/// Row-granular read/write footprint of one shard-job pass, derived from
/// the executor's named operand layouts. The footprint is conservative:
/// every operand region is both read and written over the job's lifetime
/// (streaming loads, bit-serial compute, result peeks), and dump-using
/// jobs additionally write the reserved [`DUMP_ROW`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutSpec {
    /// Pass name (e.g. `"mac_reduce"`).
    pub name: String,
    /// Word-line ranges `[start, end)` the job senses.
    pub reads: Vec<(u16, u16)>,
    /// Word-line ranges `[start, end)` the job drives.
    pub writes: Vec<(u16, u16)>,
}

impl LayoutSpec {
    /// Whether any write range of `self` overlaps any write range of
    /// `other`.
    #[must_use]
    pub fn writes_overlap(&self, other: &LayoutSpec) -> bool {
        ranges_overlap(&self.writes, &other.writes)
    }

    /// Whether a write of either layout overlaps a read of the other.
    #[must_use]
    pub fn write_read_overlap(&self, other: &LayoutSpec) -> bool {
        ranges_overlap(&self.writes, &other.reads) || ranges_overlap(&self.reads, &other.writes)
    }
}

fn ranges_overlap(a: &[(u16, u16)], b: &[(u16, u16)]) -> bool {
    a.iter()
        .any(|&(s1, e1)| b.iter().any(|&(s2, e2)| s1 < e2 && s2 < e1))
}

/// One group of pool checkouts by a shard: `count` arrays with consecutive
/// virtual ids `first_array..first_array + count`, all staged with the
/// same pass layout. The builder assigns every checkout a globally unique
/// virtual id — the pool may hand back the same physical array after a
/// release, but never the same *live* checkout, which is exactly the
/// aliasing the checker hunts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolUse {
    /// Index into [`ShardGraph::layouts`].
    pub layout: u32,
    /// First virtual array id of the group.
    pub first_array: u32,
    /// Number of arrays in the group.
    pub count: u32,
    /// Checked out through the `ArrayPool` (false models a raw touch of
    /// an array the shard never checked out).
    pub acquired: bool,
    /// Returned to the pool when the shard job ends.
    pub released: bool,
}

/// One shard job of an epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shard {
    /// Arrays this shard stages, grouped by pass layout.
    pub uses: Vec<PoolUse>,
    /// Slice `[start, end)` of the epoch's output buffer this shard
    /// writes (host-side fold target).
    pub write_slots: Option<(u64, u64)>,
    /// Slice `[start, end)` of the epoch's input buffer this shard reads.
    pub read_slots: Option<(u64, u64)>,
    /// Claims the reserved cache way (the batch pipeline's dump target).
    /// The executor never schedules compute there; a true flag inside a
    /// dump-overlap window is a race.
    pub reserved_way: bool,
}

/// The pass a set of shard jobs implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// MAC + grouped reduction + accumulator assembly (one shard per
    /// output window).
    Mac,
    /// Inter-array min/max ranging (one shard per 256-lane chunk). Its
    /// cross-shard accumulator read must be dominated by the reduce
    /// barrier.
    Ranging,
    /// Accumulator requantization (one shard per 256-lane chunk).
    Requant,
    /// Code-to-code requantization of a pool-final branch.
    CodeRequant,
    /// Max/average pooling (one shard per 256-lane chunk).
    Pool,
}

/// One `ExecutionEngine::run` dispatch: a batch of mutually concurrent
/// shard jobs with an implicit join at the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// Label (e.g. `"Conv2d_1a_3x3/mac"`).
    pub label: String,
    /// The pass these shards implement.
    pub kind: EpochKind,
    /// The concurrent shard jobs.
    pub shards: Vec<Shard>,
    /// Host buffer id this epoch's shards write, if any.
    pub writes_buffer: Option<u32>,
    /// Host buffer id this epoch's shards read, if any. Buffers gathered
    /// on the host *before* dispatch (input windows) are not modelled —
    /// program order already dominates them.
    pub reads_buffer: Option<u32>,
    /// Total slot count the shards' `write_slots` must exactly partition.
    pub out_slots: Option<u64>,
    /// The batch pipeline may overlap the previous image's reserved-way
    /// dump with this epoch (true for every compute epoch — which is why
    /// no shard may claim the reserved way).
    pub dump_window: bool,
}

impl Epoch {
    fn new(label: String, kind: EpochKind) -> Self {
        Epoch {
            label,
            kind,
            shards: Vec::new(),
            writes_buffer: None,
            reads_buffer: None,
            out_slots: None,
            dump_window: true,
        }
    }
}

/// The full concurrent schedule of one model inference: epochs in dispatch
/// order, the joins between them, and which joins are inter-array reduce
/// barriers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardGraph {
    /// Model name.
    pub name: String,
    /// The pass layouts shards reference (row-granular footprints).
    pub layouts: Vec<LayoutSpec>,
    /// Dispatch-ordered epochs.
    pub epochs: Vec<Epoch>,
    /// `joins[i]` is true when a barrier separates epoch `i` and `i + 1`
    /// (every `ExecutionEngine::run` return is one; the builder emits all
    /// true — race-injection tests drop them).
    pub joins: Vec<bool>,
    /// Join indices that are inter-array reduce barriers (the MAC →
    /// ranging join of each convolution).
    pub reduce_barriers: Vec<usize>,
    /// Virtual array id space (total pool checkouts).
    pub arrays: u32,
    /// Host buffer id space.
    pub buffers: u32,
}

impl ShardGraph {
    /// Builds the shard graph of `model`'s functional execution: the same
    /// work decomposition, in the same dispatch order, with the same pool
    /// checkout counts as `neural_cache::functional` — derived from
    /// shapes and lane geometry alone (no weights, nothing executes).
    #[must_use]
    pub fn from_model(model: &Model) -> Self {
        let mut b = Builder::new(model.name.clone());
        let mut cur = Tensor {
            shape: model.input_shape,
            buffer: None,
        };
        for layer in &model.layers {
            let Ok(out) = walk_layer(&mut b, layer, &cur);
            cur = out;
        }
        b.finish()
    }

    /// Total shard jobs across all epochs.
    #[must_use]
    pub fn shard_count(&self) -> u64 {
        self.epochs.iter().map(|e| e.shards.len() as u64).sum()
    }

    /// Total pool checkouts the graph predicts — the number the executed
    /// [`nc_sram::PoolStats::acquires`] counter must match exactly, on
    /// every engine under every sparsity mode.
    #[must_use]
    pub fn predicted_acquires(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .flat_map(|s| &s.uses)
            .filter(|u| u.acquired)
            .map(|u| u64::from(u.count))
            .sum()
    }
}

/// Indices into [`ShardGraph::layouts`] for the executor pass layouts, in
/// the order [`all_layouts_with_dump`] reports them.
#[derive(Debug, Clone, Copy)]
struct PassIds {
    mac_reduce: u32,
    assemble: u32,
    ranging: u32,
    requant: u32,
    code_requant: u32,
    pool_max: u32,
    pool_avg: u32,
}

/// A tensor of the walk (codes or accumulators): its shape and the host
/// buffer that holds it (`None` for the model input and concatenated block
/// outputs, which no epoch reads as a buffer).
struct Tensor {
    shape: Shape,
    buffer: Option<u32>,
}

struct Builder {
    name: String,
    layouts: Vec<LayoutSpec>,
    ids: PassIds,
    epochs: Vec<Epoch>,
    joins: Vec<bool>,
    reduce_barriers: Vec<usize>,
    next_array: u32,
    next_buffer: u32,
}

impl Builder {
    fn new(name: String) -> Self {
        let mut layouts = Vec::new();
        let mut index_of = |job: &str| -> u32 {
            let (name, operands, dumps) = all_layouts_with_dump()
                .into_iter()
                .find(|(n, _, _)| *n == job)
                .expect("executor pass layout exists");
            let rows: Vec<(u16, u16)> = operands
                .iter()
                .map(|(_, o)| (o.rows().start as u16, o.rows().end as u16))
                .collect();
            let mut writes = rows.clone();
            if dumps {
                writes.push((DUMP_ROW as u16, DUMP_ROW as u16 + 1));
            }
            layouts.push(LayoutSpec {
                name: name.to_string(),
                reads: rows,
                writes,
            });
            (layouts.len() - 1) as u32
        };
        let ids = PassIds {
            mac_reduce: index_of("mac_reduce"),
            assemble: index_of("assemble_acc"),
            ranging: index_of("ranging"),
            requant: index_of("requant"),
            code_requant: index_of("code_requant"),
            pool_max: index_of("pool_max"),
            pool_avg: index_of("pool_avg"),
        };
        Builder {
            name,
            layouts,
            ids,
            epochs: Vec::new(),
            joins: Vec::new(),
            reduce_barriers: Vec::new(),
            next_array: 0,
            next_buffer: 0,
        }
    }

    fn finish(self) -> ShardGraph {
        ShardGraph {
            name: self.name,
            layouts: self.layouts,
            epochs: self.epochs,
            joins: self.joins,
            reduce_barriers: self.reduce_barriers,
            arrays: self.next_array,
            buffers: self.next_buffer,
        }
    }

    fn checkout(&mut self, layout: u32, count: u32) -> PoolUse {
        let first_array = self.next_array;
        self.next_array += count;
        PoolUse {
            layout,
            first_array,
            count,
            acquired: true,
            released: true,
        }
    }

    fn fresh_buffer(&mut self) -> u32 {
        let b = self.next_buffer;
        self.next_buffer += 1;
        b
    }

    fn push(&mut self, epoch: Epoch) {
        if !self.epochs.is_empty() {
            self.joins.push(true);
        }
        self.epochs.push(epoch);
    }

    /// Requantization epoch over `acc`'s slots (pass 3). Returns the
    /// requantized tensor.
    fn requant_epoch(&mut self, name: &str, acc: &Tensor) -> Tensor {
        let buffer = self.chunked_epoch(
            format!("{name}/requant"),
            EpochKind::Requant,
            self.ids.requant,
            acc.shape.len() as u64,
            acc.buffer,
        );
        Tensor {
            shape: acc.shape,
            buffer: Some(buffer),
        }
    }

    /// One shard per 256-slot chunk, each acquiring one array, reading the
    /// input buffer chunk and writing the same chunk of a fresh output
    /// buffer. Returns the output buffer id.
    fn chunked_epoch(
        &mut self,
        label: String,
        kind: EpochKind,
        layout: u32,
        total: u64,
        reads: Option<u32>,
    ) -> u32 {
        let out_buffer = self.fresh_buffer();
        let mut epoch = Epoch::new(label, kind);
        epoch.writes_buffer = Some(out_buffer);
        epoch.reads_buffer = reads;
        epoch.out_slots = Some(total);
        for chunk in 0..total.div_ceil(COLS as u64) {
            let slots = (chunk * COLS as u64, total.min((chunk + 1) * COLS as u64));
            let uses = vec![self.checkout(layout, 1)];
            epoch.shards.push(Shard {
                uses,
                write_slots: Some(slots),
                read_slots: reads.map(|_| slots),
                reserved_way: false,
            });
        }
        self.push(epoch);
        out_buffer
    }
}

/// The executor's leaf passes as epochs: [`walk_layer`] sequences them
/// exactly as it sequences the functional executor's dispatches.
impl<'m> Passes<'m> for Builder {
    type Act = Tensor;
    type Acc = Tensor;
    type Error = Infallible;

    /// MAC + assembly epoch, reduce barrier, ranging epoch.
    fn conv(&mut self, conv: &'m Conv2d, input: &Tensor) -> Result<Tensor, Infallible> {
        let spec = &conv.spec;
        let out_shape = spec.out_shape(input.shape);
        let positions = out_shape.h * out_shape.w;
        let m = spec.m as u64;
        let (mac_arrays, assemble_arrays) = conv_lane_geometry(spec).mac_job_checkouts(spec.m);
        let total = out_shape.len() as u64;
        let acc_buffer = self.fresh_buffer();

        let mut mac = Epoch::new(format!("{}/mac", spec.name), EpochKind::Mac);
        mac.writes_buffer = Some(acc_buffer);
        mac.out_slots = Some(total);
        for pos in 0..positions as u64 {
            let uses = vec![
                self.checkout(self.ids.mac_reduce, mac_arrays as u32),
                self.checkout(self.ids.assemble, assemble_arrays as u32),
            ];
            mac.shards.push(Shard {
                uses,
                write_slots: Some((pos * m, (pos + 1) * m)),
                read_slots: None,
                reserved_way: false,
            });
        }
        self.push(mac);

        // The join sealing the MAC epoch is THE inter-array reduce
        // barrier: ranging needs every shard's accumulators.
        let barrier = self.epochs.len() - 1;
        let mut ranging = Epoch::new(format!("{}/ranging", spec.name), EpochKind::Ranging);
        ranging.reads_buffer = Some(acc_buffer);
        for chunk in 0..total.div_ceil(COLS as u64) {
            let uses = vec![self.checkout(self.ids.ranging, 2)];
            ranging.shards.push(Shard {
                uses,
                write_slots: None,
                read_slots: Some((chunk * COLS as u64, total.min((chunk + 1) * COLS as u64))),
                reserved_way: false,
            });
        }
        self.push(ranging);
        self.reduce_barriers.push(barrier);
        Ok(Tensor {
            shape: out_shape,
            buffer: Some(acc_buffer),
        })
    }

    fn requantize(&mut self, conv: &'m Conv2d, acc: Tensor) -> Result<Tensor, Infallible> {
        Ok(self.requant_epoch(&conv.spec.name, &acc))
    }

    /// Pooling epoch (windows are gathered host-side before dispatch, so
    /// no modelled buffer read).
    fn pool(&mut self, pool: &'m Pool2d, input: &Tensor) -> Result<Tensor, Infallible> {
        let shape = pool.out_shape(input.shape);
        let layout = match pool.kind {
            PoolKind::Max => self.ids.pool_max,
            PoolKind::Avg => self.ids.pool_avg,
        };
        let buffer = self.chunked_epoch(
            format!("{}/pool", pool.name),
            EpochKind::Pool,
            layout,
            shape.len() as u64,
            None,
        );
        Ok(Tensor {
            shape,
            buffer: Some(buffer),
        })
    }

    /// The deferred (code-)requantizations, in pending order, after the
    /// block-wide range.
    fn join(
        &mut self,
        _block: &'m MixedBlock,
        pending: Vec<Pending<'m, Tensor, Tensor>>,
    ) -> Result<Tensor, Infallible> {
        let mut parts = Vec::with_capacity(pending.len());
        for p in pending {
            parts.push(match p {
                Pending::Conv(conv, acc) => self.requant_epoch(&conv.spec.name, &acc).shape,
                Pending::Pool(pool, codes) => {
                    self.chunked_epoch(
                        format!("{}/code_requant", pool.name),
                        EpochKind::CodeRequant,
                        self.ids.code_requant,
                        codes.shape.len() as u64,
                        codes.buffer,
                    );
                    codes.shape
                }
            });
        }
        Ok(Tensor {
            shape: concat_shapes(parts),
            buffer: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::workload::tiny_cnn;

    #[test]
    fn conv_epochs_mirror_the_executor_decomposition() {
        let model = tiny_cnn(42);
        let g = ShardGraph::from_model(&model);
        assert_eq!(g.name, model.name);
        assert!(g.epochs.len() >= 3, "mac + ranging + requant per conv");
        assert_eq!(g.joins.len(), g.epochs.len() - 1);
        assert!(g.joins.iter().all(|&j| j), "builder emits every barrier");
        assert!(!g.reduce_barriers.is_empty());
        assert!(g.predicted_acquires() > 0);
        assert_eq!(u64::from(g.arrays), g.predicted_acquires());

        // Every MAC epoch is sealed by a reduce barrier and followed by
        // its ranging epoch.
        for (i, e) in g.epochs.iter().enumerate() {
            if e.kind == EpochKind::Mac {
                assert!(g.reduce_barriers.contains(&i), "{}: unsealed MAC", e.label);
                assert_eq!(g.epochs[i + 1].kind, EpochKind::Ranging);
                assert_eq!(g.epochs[i + 1].reads_buffer, e.writes_buffer);
            }
        }
    }

    #[test]
    fn checkout_ids_are_globally_unique() {
        let g = ShardGraph::from_model(&tiny_cnn(42));
        let mut seen = vec![false; g.arrays as usize];
        for use_ in g
            .epochs
            .iter()
            .flat_map(|e| &e.shards)
            .flat_map(|s| &s.uses)
        {
            for id in use_.first_array..use_.first_array + use_.count {
                assert!(!seen[id as usize], "array {id} checked out twice");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "virtual id space is dense");
    }

    #[test]
    fn layout_footprints_cover_the_dump_row_users() {
        let g = ShardGraph::from_model(&tiny_cnn(1));
        let dump = (DUMP_ROW as u16, DUMP_ROW as u16 + 1);
        for spec in &g.layouts {
            let dumps = spec.writes.contains(&dump);
            let should = matches!(
                spec.name.as_str(),
                "ranging" | "requant" | "code_requant" | "pool_max"
            );
            assert_eq!(dumps, should, "{}", spec.name);
        }
    }
}
