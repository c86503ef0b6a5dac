//! The operator DAG, its builder, and graph-level analyses.
//!
//! A [`Graph`] is the unit the hardware simulator consumes: it walks the
//! nodes in topological order, assigns each a simulated run time, and takes
//! the longest weighted path through the DAG as the model's execution time
//! (§6.2.3: "sums the total run-time on the critical path"). Independent
//! branches — e.g. DLRM's embedding side vs. its bottom-MLP side — therefore
//! overlap, reproducing the paper's
//! `step time = MAX(embedding time, MLP time)` behaviour (Fig. 8).

use crate::op::{DType, OpCost, OpKind};
use std::ops::Range;

/// Identifier of a node within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One operator instance in the DAG.
#[derive(Debug, Clone)]
pub struct Node {
    /// Identifier (index into [`Graph::nodes`]).
    pub id: NodeId,
    /// The operator.
    pub kind: OpKind,
    /// This node's producers, as a range of the graph's flat edge array;
    /// read them through [`Graph::inputs`].
    inputs: Range<usize>,
    /// Set by the fusion pass: a fused elementwise op reads its input from
    /// registers/accumulators, so its memory traffic is elided.
    pub fused: bool,
}

/// An operator DAG with cost accounting.
///
/// # Examples
///
/// ```
/// use h2o_graph::{Graph, OpKind, DType};
///
/// let mut g = Graph::new("tiny", DType::Bf16);
/// let a = g.add(OpKind::MatMul { m: 8, k: 8, n: 8 }, &[]);
/// let _ = g.add(
///     OpKind::Elementwise { elems: 64, ops_per_elem: 1.0, label: "relu".into() },
///     &[a],
/// );
/// assert_eq!(g.len(), 2);
/// assert!(g.total_cost().flops > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    dtype: DType,
    nodes: Vec<Node>,
    /// Every node's inputs, concatenated in node order (compressed sparse
    /// rows: node `i` owns `edges[nodes[i].inputs]`).
    edges: Vec<NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        Self::with_capacity(name, dtype, 0, 0)
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges`
    /// input references in total, so a builder that knows its size up
    /// front allocates each array once.
    pub fn with_capacity(
        name: impl Into<String>,
        dtype: DType,
        nodes: usize,
        edges: usize,
    ) -> Self {
        Self {
            name: name.into(),
            dtype,
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Graph name (model identifier in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element type used for byte accounting.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in insertion (= topological) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The producers node `id` consumes, in the order they were given.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn inputs(&self, id: NodeId) -> &[NodeId] {
        &self.edges[self.nodes[id.0].inputs.clone()]
    }

    /// Appends an operator whose inputs must already exist, returning its id.
    ///
    /// Insertion order is required to be a valid topological order (inputs
    /// before consumers), which this method enforces.
    ///
    /// # Panics
    ///
    /// Panics if an input id is not yet in the graph.
    pub fn add(&mut self, kind: OpKind, inputs: &[NodeId]) -> NodeId {
        for &input in inputs {
            assert!(input.0 < self.nodes.len(), "input {input:?} not yet added");
        }
        let id = NodeId(self.nodes.len());
        let start = self.edges.len();
        self.edges.extend_from_slice(inputs);
        self.nodes.push(Node {
            id,
            kind,
            inputs: start..self.edges.len(),
            fused: false,
        });
        id
    }

    /// Appends every node of `other` (a reusable sub-graph), wiring its
    /// sources to `attach` and returning the ids of `other`'s sinks.
    pub fn append_subgraph(&mut self, other: &Graph, attach: &[NodeId]) -> Vec<NodeId> {
        let offset = self.nodes.len();
        let mut has_consumer = vec![false; other.nodes.len()];
        for input in &other.edges {
            has_consumer[input.0] = true;
        }
        for node in &other.nodes {
            let inputs: Vec<NodeId> = match other.inputs(node.id) {
                [] => attach.to_vec(),
                inputs => inputs.iter().map(|i| NodeId(i.0 + offset)).collect(),
            };
            self.add(node.kind.clone(), &inputs);
        }
        (0..other.nodes.len())
            .filter(|&i| !has_consumer[i])
            .map(|i| NodeId(i + offset))
            .collect()
    }

    /// Sets a node's fused flag directly (used by the textual-format parser;
    /// prefer [`Graph::fuse_elementwise`] for the analysis pass).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_fused(&mut self, id: NodeId, fused: bool) {
        self.nodes[id.0].fused = fused;
    }

    /// Cost of one node, honouring its `fused` flag (fused elementwise ops
    /// keep their VPU work but lose their memory traffic).
    pub fn node_cost(&self, id: NodeId) -> OpCost {
        let node = &self.nodes[id.0];
        let mut cost = node.kind.cost(self.dtype);
        if node.fused {
            cost.bytes_read = 0.0;
            cost.bytes_written = 0.0;
        }
        cost
    }

    /// Sum of all node costs.
    pub fn total_cost(&self) -> OpCost {
        let mut total = OpCost::default();
        for node in &self.nodes {
            total = total.combine(&self.node_cost(node.id));
        }
        total
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> f64 {
        self.total_cost().params
    }

    /// Total matrix-unit FLOPs (the "FLOPs" column of the paper's tables).
    pub fn total_flops(&self) -> f64 {
        self.total_cost().flops
    }

    /// XLA-style producer-consumer fusion: an [`OpKind::Elementwise`],
    /// [`OpKind::Reshape`] or [`OpKind::Concat`] node whose single producer
    /// has no other consumer is marked `fused`, eliding its memory
    /// round-trip. Returns the number of newly fused nodes.
    ///
    /// The paper's simulator "simulates compiler optimizations such as
    /// op/layer fusion" when fed TensorFlow graphs; this pass is that
    /// optimisation.
    pub fn fuse_elementwise(&mut self) -> usize {
        let mut consumer_count = vec![0usize; self.nodes.len()];
        for input in &self.edges {
            consumer_count[input.0] += 1;
        }
        let mut fused = 0;
        for node in &mut self.nodes {
            let fusible = matches!(
                node.kind,
                OpKind::Elementwise { .. } | OpKind::Reshape { .. } | OpKind::Concat { .. }
            );
            if !fusible || node.fused {
                continue;
            }
            if let [producer] = &self.edges[node.inputs.clone()] {
                if consumer_count[producer.0] == 1 {
                    node.fused = true;
                    fused += 1;
                }
            }
        }
        fused
    }

    /// Longest weighted path through the DAG, where `node_time` gives each
    /// node's duration. Nodes with no inputs start at t = 0; independent
    /// branches overlap. This is the critical-path execution time of
    /// §6.2.3.
    ///
    /// # Panics
    ///
    /// Panics if `node_time` returns a negative duration.
    pub fn critical_path_time(&self, mut node_time: impl FnMut(NodeId) -> f64) -> f64 {
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut max_finish = 0.0f64;
        for node in &self.nodes {
            let t = node_time(node.id);
            assert!(t >= 0.0, "negative node time for {:?}", node.id);
            let start = self.edges[node.inputs.clone()]
                .iter()
                .map(|i| finish[i.0])
                .fold(0.0f64, f64::max);
            finish[node.id.0] = start + t;
            max_finish = max_finish.max(finish[node.id.0]);
        }
        max_finish
    }

    /// Per-branch finish times of the graph's sink nodes, labelled by op.
    /// Useful for Fig. 8-style embedding-vs-MLP breakdowns.
    pub fn sink_finish_times(
        &self,
        mut node_time: impl FnMut(NodeId) -> f64,
    ) -> Vec<(NodeId, f64)> {
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut has_consumer = vec![false; self.nodes.len()];
        for node in &self.nodes {
            let t = node_time(node.id);
            let inputs = &self.edges[node.inputs.clone()];
            let start = inputs.iter().map(|i| finish[i.0]).fold(0.0f64, f64::max);
            finish[node.id.0] = start + t;
            for input in inputs {
                has_consumer[input.0] = true;
            }
        }
        self.nodes
            .iter()
            .filter(|n| !has_consumer[n.id.0])
            .map(|n| (n.id, finish[n.id.0]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ew(elems: usize) -> OpKind {
        OpKind::Elementwise {
            elems,
            ops_per_elem: 1.0,
            label: "relu".into(),
        }
    }

    #[test]
    fn add_enforces_topological_order() {
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.add(OpKind::MatMul { m: 1, k: 1, n: 1 }, &[]);
        let b = g.add(ew(1), &[a]);
        assert_eq!(b, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn add_rejects_forward_reference() {
        let mut g = Graph::new("t", DType::Bf16);
        g.add(ew(1), &[NodeId(5)]);
    }

    #[test]
    fn total_cost_sums_nodes() {
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.add(OpKind::MatMul { m: 2, k: 2, n: 2 }, &[]);
        g.add(OpKind::MatMul { m: 2, k: 2, n: 2 }, &[a]);
        assert_eq!(g.total_flops(), 2.0 * 16.0);
    }

    #[test]
    fn fusion_elides_memory_but_keeps_vpu() {
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.add(OpKind::MatMul { m: 4, k: 4, n: 4 }, &[]);
        let e = g.add(ew(16), &[a]);
        let before = g.node_cost(e);
        assert_eq!(g.fuse_elementwise(), 1);
        let after = g.node_cost(e);
        assert_eq!(after.bytes_read, 0.0);
        assert_eq!(after.bytes_written, 0.0);
        assert_eq!(after.vpu_ops, before.vpu_ops);
    }

    #[test]
    fn fusion_skips_multi_consumer_producers() {
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.add(OpKind::MatMul { m: 4, k: 4, n: 4 }, &[]);
        let _e1 = g.add(ew(16), &[a]);
        let _e2 = g.add(ew(16), &[a]); // `a` now has two consumers
        assert_eq!(g.fuse_elementwise(), 0);
    }

    #[test]
    fn fusion_skips_multi_input_elementwise() {
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.add(OpKind::MatMul { m: 4, k: 4, n: 4 }, &[]);
        let b = g.add(OpKind::MatMul { m: 4, k: 4, n: 4 }, &[]);
        let _c = g.add(OpKind::Concat { elems: 32 }, &[a, b]);
        assert_eq!(g.fuse_elementwise(), 0);
    }

    #[test]
    fn critical_path_takes_max_of_parallel_branches() {
        // a --> c, b --> c: time(c) starts after max(a, b).
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.add(ew(1), &[]);
        let b = g.add(ew(2), &[]);
        let c = g.add(OpKind::Concat { elems: 3 }, &[a, b]);
        let time = |id: NodeId| match id {
            i if i == a => 5.0,
            i if i == b => 9.0,
            i if i == c => 1.0,
            other => panic!("critical_path_time queried unknown node {other:?}"),
        };
        assert_eq!(g.critical_path_time(time), 10.0);
    }

    #[test]
    fn critical_path_serial_chain_sums() {
        let mut g = Graph::new("t", DType::Bf16);
        let a = g.add(ew(1), &[]);
        let b = g.add(ew(1), &[a]);
        let _c = g.add(ew(1), &[b]);
        assert_eq!(g.critical_path_time(|_| 2.0), 6.0);
    }

    #[test]
    fn sink_finish_times_reports_all_sinks() {
        let mut g = Graph::new("t", DType::Bf16);
        let _a = g.add(ew(1), &[]);
        let _b = g.add(ew(1), &[]);
        let sinks = g.sink_finish_times(|_| 1.0);
        assert_eq!(sinks.len(), 2);
    }

    #[test]
    fn append_subgraph_rewires_sources_and_returns_sinks() {
        let mut sub = Graph::new("sub", DType::Bf16);
        let s0 = sub.add(OpKind::MatMul { m: 1, k: 1, n: 1 }, &[]);
        sub.add(ew(1), &[s0]);

        let mut g = Graph::new("main", DType::Bf16);
        let root = g.add(ew(1), &[]);
        let sinks = g.append_subgraph(&sub, &[root]);
        assert_eq!(sinks.len(), 1);
        assert_eq!(g.len(), 3);
        // The subgraph's source must now consume `root`.
        assert_eq!(g.inputs(NodeId(1)), [root]);
    }

    #[test]
    fn empty_graph_critical_path_is_zero() {
        let g = Graph::new("t", DType::Bf16);
        assert_eq!(g.critical_path_time(|_| 1.0), 0.0);
        assert!(g.is_empty());
    }
}
