//! Transaction programs: straight-line step lists with computed writes.
//!
//! Workload generators produce [`TxnProgram`]s; drivers execute them against
//! any [`Scheduler`](crate::scheduler::Scheduler). A program is a sequence
//! of reads and writes where a write's value may be *computed* from the
//! values read so far — exactly the shape of the paper's examples
//! ("reads Smith's balance … computes new balance … writes new balance").

use crate::ids::{GranuleId, IdMap};
use crate::scheduler::TxnProfile;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// The values a transaction has read so far, available to computed writes.
/// Holds shared references to version payloads — recording a read never
/// copies the value.
#[derive(Debug, Default, Clone)]
pub struct ReadCtx {
    by_granule: IdMap<GranuleId, Arc<Value>>,
    in_order: Vec<(GranuleId, Arc<Value>)>,
}

impl ReadCtx {
    /// Record a read result.
    pub fn record(&mut self, g: GranuleId, v: Arc<Value>) {
        self.by_granule.insert(g, Arc::clone(&v));
        self.in_order.push((g, v));
    }

    /// The value read from `g` (last read wins), or [`Value::Absent`].
    pub fn get(&self, g: GranuleId) -> Value {
        self.by_granule
            .get(&g)
            .map_or(Value::Absent, |v| (**v).clone())
    }

    /// Integer value read from `g` (0 when absent).
    pub fn int(&self, g: GranuleId) -> i64 {
        self.by_granule.get(&g).map_or(0, |v| v.as_int())
    }

    /// Sum of all integer values read, in read order (duplicates counted).
    pub fn sum_ints(&self) -> i64 {
        self.in_order.iter().map(|(_, v)| v.as_int()).sum()
    }

    /// All reads in execution order.
    pub fn reads(&self) -> &[(GranuleId, Arc<Value>)] {
        &self.in_order
    }
}

/// Where a written value comes from.
#[derive(Clone)]
pub enum WriteSource {
    /// A constant determined when the program was generated.
    Const(Value),
    /// A function of the values read so far (read-modify-write).
    Computed(Arc<dyn Fn(&ReadCtx) -> Value + Send + Sync>),
}

impl WriteSource {
    /// Resolve against the transaction's reads.
    pub fn resolve(&self, ctx: &ReadCtx) -> Value {
        match self {
            WriteSource::Const(v) => v.clone(),
            WriteSource::Computed(f) => f(ctx),
        }
    }
}

impl fmt::Debug for WriteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteSource::Const(v) => write!(f, "const({v:?})"),
            WriteSource::Computed(_) => write!(f, "computed"),
        }
    }
}

/// One step of a transaction program.
#[derive(Debug, Clone)]
pub enum Step {
    /// Read a granule.
    Read(GranuleId),
    /// Write a granule.
    Write(GranuleId, WriteSource),
}

impl Step {
    /// The granule this step touches.
    pub fn granule(&self) -> GranuleId {
        match self {
            Step::Read(g) => *g,
            Step::Write(g, _) => *g,
        }
    }

    /// True for write steps.
    pub fn is_write(&self) -> bool {
        matches!(self, Step::Write(..))
    }
}

/// A complete transaction program: profile (class / declared segments) plus
/// the step list. Cloneable so aborted transactions can be re-submitted as
/// fresh transactions.
#[derive(Debug, Clone)]
pub struct TxnProgram {
    /// Class membership and declared read/write segments.
    pub profile: TxnProfile,
    /// Steps in program order.
    pub steps: Vec<Step>,
    /// Human-readable label ("type2-inventory-post", ...).
    pub label: String,
}

impl TxnProgram {
    /// Build a program, deriving the profile's segment sets from the steps
    /// (declared sets are the union of the steps' segments).
    pub fn new(label: impl Into<String>, profile: TxnProfile, steps: Vec<Step>) -> Self {
        TxnProgram {
            profile,
            steps,
            label: label.into(),
        }
    }

    /// Convenience builder.
    pub fn builder(label: impl Into<String>) -> TxnProgramBuilder {
        TxnProgramBuilder {
            label: label.into(),
            steps: Vec::new(),
        }
    }

    /// Number of read steps.
    pub fn read_count(&self) -> usize {
        self.steps.iter().filter(|s| !s.is_write()).count()
    }

    /// Number of write steps.
    pub fn write_count(&self) -> usize {
        self.steps.iter().filter(|s| s.is_write()).count()
    }
}

/// Step-list builder for [`TxnProgram`]; the profile is attached at
/// `build` time since class assignment depends on the hierarchy.
#[derive(Debug)]
pub struct TxnProgramBuilder {
    label: String,
    steps: Vec<Step>,
}

impl TxnProgramBuilder {
    /// Append a read step.
    pub fn read(mut self, g: GranuleId) -> Self {
        self.steps.push(Step::Read(g));
        self
    }

    /// Append a constant write step.
    pub fn write(mut self, g: GranuleId, v: impl Into<Value>) -> Self {
        self.steps
            .push(Step::Write(g, WriteSource::Const(v.into())));
        self
    }

    /// Append a computed write step.
    pub fn write_computed(
        mut self,
        g: GranuleId,
        f: impl Fn(&ReadCtx) -> Value + Send + Sync + 'static,
    ) -> Self {
        self.steps
            .push(Step::Write(g, WriteSource::Computed(Arc::new(f))));
        self
    }

    /// Attach the profile and finish.
    pub fn build(self, profile: TxnProfile) -> TxnProgram {
        TxnProgram::new(self.label, profile, self.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClassId, GranuleId, SegmentId};

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    #[test]
    fn read_ctx_tracks_order_and_latest() {
        let mut ctx = ReadCtx::default();
        ctx.record(g(0, 1), Arc::new(Value::Int(10)));
        ctx.record(g(0, 2), Arc::new(Value::Int(5)));
        ctx.record(g(0, 1), Arc::new(Value::Int(20))); // re-read
        assert_eq!(ctx.int(g(0, 1)), 20);
        assert_eq!(ctx.sum_ints(), 35);
        assert_eq!(ctx.reads().len(), 3);
        assert_eq!(ctx.get(g(9, 9)), Value::Absent);
    }

    #[test]
    fn computed_write_sees_reads() {
        let mut ctx = ReadCtx::default();
        ctx.record(g(0, 1), Arc::new(Value::Int(100)));
        let w = WriteSource::Computed(Arc::new(|c: &ReadCtx| Value::Int(c.int(g(0, 1)) + 50)));
        assert_eq!(w.resolve(&ctx), Value::Int(150));
        assert_eq!(
            WriteSource::Const(Value::Int(7)).resolve(&ctx),
            Value::Int(7)
        );
    }

    #[test]
    fn builder_produces_expected_steps() {
        let p = TxnProgram::builder("deposit")
            .read(g(0, 1))
            .write_computed(g(0, 1), |c| Value::Int(c.int(g(0, 1)) + 50))
            .build(TxnProfile::update(ClassId(0), vec![SegmentId(0)]));
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.read_count(), 1);
        assert_eq!(p.write_count(), 1);
        assert!(p.steps[1].is_write());
        assert_eq!(p.steps[0].granule(), g(0, 1));
        assert_eq!(p.label, "deposit");
    }
}
