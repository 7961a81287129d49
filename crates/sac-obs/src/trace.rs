//! Per-query trace trees: a nested span tree replacing flat stage timings.
//!
//! A [`TraceNode`] captures one timed stage — its label, its start offset
//! from the root's start, its duration — and its child stages, e.g.
//! `query → {plan, exec}` for a dispatched query or
//! `commit → {snapshot_build, publish → {rebuild, swap}}` for the commit
//! pipeline. Trees are built *lazily from already-measured durations* after
//! the query finishes (head-sampled 1-in-N, on request, or when the slow-log
//! threshold trips), so the dispatch fast path never allocates for them.
//!
//! ```
//! use sac_obs::TraceNode;
//!
//! let tree = TraceNode::new("query", 0, 1_500)
//!     .with_child(TraceNode::new("plan", 0, 40))
//!     .with_child(TraceNode::new("exec", 40, 1_460));
//! assert_eq!(tree.children.len(), 2);
//! assert!(tree.render().starts_with("query:1500us"));
//! ```

/// One node of a per-query trace tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceNode {
    /// Stage label, e.g. `plan`, `exec`, `snapshot_build`, `swap`.
    pub name: String,
    /// Microseconds from the root span's start to this span's start.
    pub start_micros: u64,
    /// This span's duration in microseconds (inclusive of children).
    pub micros: u64,
    /// Nested child spans, in start order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Creates a leaf node.
    pub fn new(name: impl Into<String>, start_micros: u64, micros: u64) -> Self {
        TraceNode {
            name: name.into(),
            start_micros,
            micros,
            children: Vec::new(),
        }
    }

    /// Appends a child span (builder style).
    pub fn with_child(mut self, child: TraceNode) -> Self {
        self.children.push(child);
        self
    }

    /// Total number of nodes in the tree (including this one).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceNode::node_count)
            .sum::<usize>()
    }

    /// Compact single-line rendering, `name:Nus[child:Nus,…]` — the shape
    /// used in log lines and event details.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{}:{}us", self.name, self.micros);
        if !self.children.is_empty() {
            out.push('[');
            for (i, child) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                child.render_into(out);
            }
            out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders_nested_trees() {
        let tree = TraceNode::new("query", 0, 100)
            .with_child(TraceNode::new("plan", 0, 10))
            .with_child(
                TraceNode::new("exec", 10, 90)
                    .with_child(TraceNode::new("context", 10, 44))
                    .with_child(TraceNode::new("search", 54, 46)),
            );
        assert_eq!(tree.node_count(), 5);
        assert_eq!(
            tree.render(),
            "query:100us[plan:10us,exec:90us[context:44us,search:46us]]"
        );
        assert_eq!(TraceNode::new("leaf", 5, 7).render(), "leaf:7us");
    }
}
