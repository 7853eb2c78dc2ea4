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
//! [`ShardGraph::from_model`] is an expansion of the executor's own job
//! plan ([`neural_cache::jobs::job_plan`]), whose epoch constructors the
//! executor dispatches: it gives every checkout a virtual array id and
//! every writing epoch a buffer id, and reads the barriers off the epoch
//! kinds. So the happens-before checker ([`crate::hb`]) proves the
//! concurrency claims about the decomposition the executor runs, and the
//! executed leg can reconcile the predicted checkout count against the
//! real pool counters ([`nc_sram::PoolStats`]).

use nc_dnn::Model;
use neural_cache::jobs::job_plan;
pub use neural_cache::jobs::EpochKind;
use neural_cache::layout::{all_layouts_with_dump, DUMP_ROW};

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
/// same pass layout. [`ShardGraph::from_model`] assigns every checkout a globally unique
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
    /// (every `ExecutionEngine::run` return is one; `from_model` emits all
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
    /// Builds the shard graph of `model`'s functional execution by
    /// expanding its [`job_plan`]: the epochs `neural_cache::functional`
    /// dispatches, in the same order, with the same pool checkouts —
    /// shape-only (no weights, nothing executes).
    #[must_use]
    pub fn from_model(model: &Model) -> Self {
        let layouts = all_layouts_with_dump()
            .into_iter()
            .map(|(name, operands, dumps)| {
                let reads: Vec<(u16, u16)> = operands
                    .iter()
                    .map(|(_, o)| (o.rows().start as u16, o.rows().end as u16))
                    .collect();
                let dump = dumps.then_some((DUMP_ROW as u16, DUMP_ROW as u16 + 1));
                let writes = reads.iter().copied().chain(dump).collect();
                LayoutSpec {
                    name: name.to_string(),
                    reads,
                    writes,
                }
            })
            .collect();
        let (mut arrays, mut buffers) = (0u32, 0u32);
        let mut epochs: Vec<Epoch> = Vec::new();
        for e in &job_plan(model) {
            let writes_buffer = (e.kind != EpochKind::Ranging).then_some(buffers);
            buffers += u32::from(writes_buffer.is_some());
            // Graph epochs are numbered like the plan's.
            let reads_buffer = e.reads.and_then(|r| epochs[r].writes_buffer);
            let shards = (0..e.jobs())
                .map(|j| {
                    let slots = e.job_slots(j);
                    let slots = (slots.start as u64, slots.end as u64);
                    let uses = e
                        .checkouts
                        .iter()
                        .map(|&(pass, count)| {
                            arrays += count;
                            PoolUse {
                                layout: pass as u32,
                                first_array: arrays - count,
                                count,
                                acquired: true,
                                released: true,
                            }
                        })
                        .collect();
                    Shard {
                        uses,
                        write_slots: writes_buffer.map(|_| slots),
                        read_slots: reads_buffer.map(|_| slots),
                        reserved_way: false,
                    }
                })
                .collect();
            epochs.push(Epoch {
                label: e.label.clone(),
                kind: e.kind,
                shards,
                writes_buffer,
                reads_buffer,
                out_slots: writes_buffer.map(|_| e.slots as u64),
                dump_window: true,
            });
        }
        ShardGraph {
            name: model.name.clone(),
            layouts,
            joins: vec![true; epochs.len().saturating_sub(1)],
            // The join sealing each MAC epoch is THE inter-array reduce
            // barrier: ranging needs every shard's accumulators.
            reduce_barriers: (0..epochs.len())
                .filter(|&i| epochs[i].kind == EpochKind::Mac)
                .collect(),
            epochs,
            arrays,
            buffers,
        }
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
        assert!(g.joins.iter().all(|&j| j), "from_model emits every barrier");
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
