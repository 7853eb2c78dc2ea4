//! The one model walk: how a layer's sub-layers are sequenced on Neural
//! Cache.
//!
//! A mixed block runs one branch at a time (Section IV). Every step
//! consumes the branch's current tensor; a non-final convolution is
//! requantized against its own range straight away, while each branch's
//! final output — a convolution's accumulators, or the codes of a
//! pool-final branch — waits until the whole block is done, because every
//! branch output is quantized against one block-wide min/max
//! (Section IV-D). A terminal [`BranchOp::Split`] fans the current tensor
//! out to several convolutions, each of which is a branch final.
//!
//! [`walk_layer`] owns that sequencing; a [`Passes`] implementor supplies
//! only the leaf steps. The functional executor, the job plan and the
//! value-range analysis implement [`Passes`]; shape-only consumers (the
//! mapper, Table I, sparsity analysis, the baselines) read the flat
//! [`Layer::units`] list built on the same walk.

use std::convert::Infallible;

use crate::{BranchOp, Conv2d, Layer, MixedBlock, Pool2d, Shape};

/// The leaf steps of one execution of a model, driven by [`walk_layer`].
///
/// `Act` is an activation tensor (codes), `Acc` the accumulators of one
/// convolution awaiting requantization. `'m` is the model's lifetime, so an
/// implementor may keep references to the sub-layers it is handed.
// What a step may fail with is the implementor's to define and document.
#[allow(clippy::missing_errors_doc)]
pub trait Passes<'m> {
    /// An activation tensor.
    type Act;
    /// A convolution's accumulators before requantization.
    type Acc;
    /// The error a step may fail with.
    type Error;

    /// Accumulates `conv` over `input` (MAC, reduce, assembly, ranging).
    fn conv(&mut self, conv: &'m Conv2d, input: &Self::Act) -> Result<Self::Acc, Self::Error>;

    /// Requantizes `acc` against its own range (a standalone convolution or
    /// a non-final branch step).
    fn requantize(&mut self, conv: &'m Conv2d, acc: Self::Acc) -> Result<Self::Act, Self::Error>;

    /// Pools `input`.
    fn pool(&mut self, pool: &'m Pool2d, input: &Self::Act) -> Result<Self::Act, Self::Error>;

    /// Finishes a mixed block: quantizes every branch final in `pending`
    /// (in pending order) against the block-wide range and concatenates
    /// them along channels.
    fn join(
        &mut self,
        block: &'m MixedBlock,
        pending: Vec<Pending<'m, Self::Acc, Self::Act>>,
    ) -> Result<Self::Act, Self::Error>;
}

/// A branch final waiting for its block's shared range.
#[derive(Debug)]
pub enum Pending<'m, Acc, Act> {
    /// A final convolution's accumulators.
    Conv(&'m Conv2d, Acc),
    /// The codes of a pool-final branch.
    Pool(&'m Pool2d, Act),
}

/// Runs one top-level layer through `passes`, returning its output.
///
/// # Errors
///
/// Propagates the first error of a leaf step.
pub fn walk_layer<'m, P: Passes<'m>>(
    passes: &mut P,
    layer: &'m Layer,
    input: &P::Act,
) -> Result<P::Act, P::Error> {
    match layer {
        Layer::Conv(conv) => {
            let acc = passes.conv(conv, input)?;
            passes.requantize(conv, acc)
        }
        Layer::Pool(pool) => passes.pool(pool, input),
        Layer::Mixed(block) => {
            let mut pending = Vec::new();
            for branch in &block.branches {
                // The branch's current tensor: the block input until a
                // step produces one of its own.
                let mut own: Option<P::Act> = None;
                for (i, op) in branch.ops.iter().enumerate() {
                    let last = i + 1 == branch.ops.len();
                    let cur = own.as_ref().unwrap_or(input);
                    match op {
                        BranchOp::Conv(conv) => {
                            let acc = passes.conv(conv, cur)?;
                            if last {
                                pending.push(Pending::Conv(conv, acc));
                            } else {
                                own = Some(passes.requantize(conv, acc)?);
                            }
                        }
                        BranchOp::Pool(pool) => {
                            let out = passes.pool(pool, cur)?;
                            if last {
                                pending.push(Pending::Pool(pool, out));
                            } else {
                                own = Some(out);
                            }
                        }
                        BranchOp::Split(convs) => {
                            for conv in convs {
                                let acc = passes.conv(conv, cur)?;
                                pending.push(Pending::Conv(conv, acc));
                            }
                        }
                    }
                }
            }
            passes.join(block, pending)
        }
    }
}

/// One leaf step of a layer with its tensor shapes, in execution order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unit<'m> {
    /// A convolution sub-layer.
    Conv {
        /// The sub-layer.
        conv: &'m Conv2d,
        /// Its input shape.
        input: Shape,
        /// Its output shape.
        output: Shape,
    },
    /// A pooling step (a standalone pooling layer or a branch step).
    Pool {
        /// The step.
        pool: &'m Pool2d,
        /// Its input shape.
        input: Shape,
        /// Its output shape.
        output: Shape,
    },
}

/// Concatenates tensor shapes along channels.
///
/// # Panics
///
/// Panics if `parts` is empty or the parts disagree on spatial dims.
#[must_use]
pub fn concat_shapes(parts: impl IntoIterator<Item = Shape>) -> Shape {
    let mut parts = parts.into_iter();
    let first = parts.next().expect("at least one part");
    parts.fold(first, |acc, s| {
        assert_eq!(
            (s.h, s.w),
            (acc.h, acc.w),
            "concatenated spatial dims differ"
        );
        Shape::new(acc.h, acc.w, acc.c + s.c)
    })
}

/// The shape-only [`Passes`] behind [`Layer::units`].
struct Units<'m>(Vec<Unit<'m>>);

impl<'m> Passes<'m> for Units<'m> {
    type Act = Shape;
    type Acc = Shape;
    type Error = Infallible;

    fn conv(&mut self, conv: &'m Conv2d, input: &Shape) -> Result<Shape, Infallible> {
        let output = conv.spec.out_shape(*input);
        self.0.push(Unit::Conv {
            conv,
            input: *input,
            output,
        });
        Ok(output)
    }

    fn requantize(&mut self, _conv: &'m Conv2d, acc: Shape) -> Result<Shape, Infallible> {
        Ok(acc)
    }

    fn pool(&mut self, pool: &'m Pool2d, input: &Shape) -> Result<Shape, Infallible> {
        let output = pool.out_shape(*input);
        self.0.push(Unit::Pool {
            pool,
            input: *input,
            output,
        });
        Ok(output)
    }

    fn join(
        &mut self,
        _block: &'m MixedBlock,
        pending: Vec<Pending<'m, Shape, Shape>>,
    ) -> Result<Shape, Infallible> {
        Ok(concat_shapes(pending.into_iter().map(|p| match p {
            Pending::Conv(_, s) | Pending::Pool(_, s) => s,
        })))
    }
}

impl Layer {
    /// Every convolution and pooling step of this layer with its shapes, in
    /// the order Neural Cache executes them (branches serially).
    #[must_use]
    pub fn units(&self, input: Shape) -> Vec<Unit<'_>> {
        let mut units = Units(Vec::new());
        let Ok(_) = walk_layer(&mut units, self, &input);
        units.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Branch, ConvSpec, Padding, PoolKind};

    fn conv(name: &str, c: usize, m: usize) -> Conv2d {
        Conv2d::shape_only(ConvSpec {
            name: name.into(),
            r: 1,
            s: 1,
            c,
            m,
            stride: 1,
            padding: Padding::Same,
            relu: true,
        })
    }

    fn pool(name: &str) -> Pool2d {
        Pool2d {
            name: name.into(),
            kind: PoolKind::Avg,
            k: 3,
            stride: 1,
            padding: Padding::Same,
        }
    }

    /// Records every leaf call; tensors are the name of their producer.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<String>,
    }

    impl<'m> Passes<'m> for Recorder {
        type Act = String;
        type Acc = String;
        type Error = Infallible;

        fn conv(&mut self, conv: &'m Conv2d, input: &String) -> Result<String, Infallible> {
            self.calls
                .push(format!("conv {} <- {input}", conv.spec.name));
            Ok(format!("acc:{}", conv.spec.name))
        }

        fn requantize(&mut self, conv: &'m Conv2d, acc: String) -> Result<String, Infallible> {
            self.calls
                .push(format!("requantize {} <- {acc}", conv.spec.name));
            Ok(conv.spec.name.clone())
        }

        fn pool(&mut self, pool: &'m Pool2d, input: &String) -> Result<String, Infallible> {
            self.calls.push(format!("pool {} <- {input}", pool.name));
            Ok(pool.name.clone())
        }

        fn join(
            &mut self,
            block: &'m MixedBlock,
            pending: Vec<Pending<'m, String, String>>,
        ) -> Result<String, Infallible> {
            let parts: Vec<String> = pending
                .into_iter()
                .map(|p| match p {
                    Pending::Conv(c, acc) => format!("{}={acc}", c.spec.name),
                    Pending::Pool(p, act) => format!("{}={act}", p.name),
                })
                .collect();
            self.calls
                .push(format!("join {} [{}]", block.name, parts.join(", ")));
            Ok(block.name.clone())
        }
    }

    fn block() -> Layer {
        Layer::Mixed(MixedBlock {
            name: "mix".into(),
            branches: vec![
                Branch::new(vec![
                    BranchOp::Conv(conv("a1", 8, 4)),
                    BranchOp::Conv(conv("a2", 4, 6)),
                ]),
                Branch::new(vec![
                    BranchOp::Pool(pool("p")),
                    BranchOp::Conv(conv("b1", 8, 2)),
                ]),
                Branch::new(vec![BranchOp::Pool(pool("q"))]),
                Branch::new(vec![
                    BranchOp::Conv(conv("s0", 8, 3)),
                    BranchOp::Split(vec![conv("s1", 3, 5), conv("s2", 3, 7)]),
                ]),
            ],
        })
    }

    #[test]
    fn mixed_block_call_sequence() {
        let layer = block();
        let mut rec = Recorder::default();
        let Ok(out) = walk_layer(&mut rec, &layer, &"in".to_string());
        assert_eq!(out, "mix");
        assert_eq!(
            rec.calls,
            [
                "conv a1 <- in",
                "requantize a1 <- acc:a1",
                "conv a2 <- a1",
                "pool p <- in",
                "conv b1 <- p",
                "pool q <- in",
                "conv s0 <- in",
                "requantize s0 <- acc:s0",
                "conv s1 <- s0",
                "conv s2 <- s0",
                "join mix [a2=acc:a2, b1=acc:b1, q=q, s1=acc:s1, s2=acc:s2]",
            ]
        );
        assert_eq!(
            rec.calls.iter().filter(|c| c.starts_with("join")).count(),
            1
        );
    }

    #[test]
    fn plain_layers_requantize_against_their_own_range() {
        let mut rec = Recorder::default();
        let layer = Layer::Conv(conv("c", 8, 4));
        let Ok(out) = walk_layer(&mut rec, &layer, &"in".to_string());
        assert_eq!(out, "c");
        let layer = Layer::Pool(pool("p"));
        let Ok(out) = walk_layer(&mut rec, &layer, &out);
        assert_eq!(out, "p");
        assert_eq!(
            rec.calls,
            ["conv c <- in", "requantize c <- acc:c", "pool p <- c"]
        );
    }

    #[test]
    fn units_carry_shapes_in_execution_order() {
        let layer = block();
        let input = Shape::new(5, 5, 8);
        let units = layer.units(input);
        let names: Vec<(&str, Shape, Shape)> = units
            .iter()
            .map(|u| match *u {
                Unit::Conv {
                    conv,
                    input,
                    output,
                } => (conv.spec.name.as_str(), input, output),
                Unit::Pool {
                    pool,
                    input,
                    output,
                } => (pool.name.as_str(), input, output),
            })
            .collect();
        let s = |c| Shape::new(5, 5, c);
        assert_eq!(
            names,
            [
                ("a1", s(8), s(4)),
                ("a2", s(4), s(6)),
                ("p", s(8), s(8)),
                ("b1", s(8), s(2)),
                ("q", s(8), s(8)),
                ("s0", s(8), s(3)),
                ("s1", s(3), s(5)),
                ("s2", s(3), s(7)),
            ]
        );
        assert_eq!(layer.out_shape(input), s(6 + 2 + 8 + 5 + 7));
    }
}
