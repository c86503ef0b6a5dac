//! A textual HLO-like serialisation of operator graphs.
//!
//! §6.2.3: the paper's simulator accepts "a TensorFlow graph or a high
//! level operation (HLO) graph of the target ML model" as input. This
//! module gives the reproduction the same interface: [`to_text`] dumps a
//! [`Graph`] into a stable, human-readable format and [`parse`] reads it
//! back, so models can be exchanged with external tools (and the `h2o`
//! CLI can simulate graphs from files).
//!
//! Format example:
//!
//! ```text
//! graph "dlrm" dtype=f32 {
//!   %0 = reshape(elems=16384)
//!   %1 = matmul(m=64, k=256, n=512) inputs=[%0]
//!   %2 = elementwise(elems=32768, ops_per_elem=1, label="relu") inputs=[%1] fused
//! }
//! ```

use crate::graph::{Graph, NodeId};
use crate::op::{DType, OpKind};
use std::fmt::Write as _;

/// Serialises a graph to the textual HLO-like format.
pub fn to_text(graph: &Graph) -> String {
    let dtype = match graph.dtype() {
        DType::Bf16 => "bf16",
        DType::F32 => "f32",
        DType::I32 => "i32",
    };
    let mut out = String::new();
    let _ = writeln!(out, "graph {:?} dtype={dtype} {{", graph.name());
    for node in graph.nodes() {
        let _ = write!(out, "  %{} = ", node.id.0);
        match &node.kind {
            OpKind::MatMul { m, k, n } => {
                let _ = write!(out, "matmul(m={m}, k={k}, n={n})");
            }
            OpKind::BatchedMatMul { batches, m, k, n } => {
                let _ = write!(
                    out,
                    "batched_matmul(batches={batches}, m={m}, k={k}, n={n})"
                );
            }
            OpKind::Conv2d {
                batch,
                h,
                w,
                c_in,
                c_out,
                kh,
                kw,
                stride,
            } => {
                let _ = write!(
                    out,
                    "conv2d(batch={batch}, h={h}, w={w}, c_in={c_in}, c_out={c_out}, kh={kh}, kw={kw}, stride={stride})"
                );
            }
            OpKind::DepthwiseConv2d {
                batch,
                h,
                w,
                c,
                kh,
                kw,
                stride,
            } => {
                let _ = write!(
                    out,
                    "depthwise_conv2d(batch={batch}, h={h}, w={w}, c={c}, kh={kh}, kw={kw}, stride={stride})"
                );
            }
            OpKind::EmbeddingLookup {
                lookups,
                width,
                vocab,
            } => {
                let _ = write!(
                    out,
                    "embedding_lookup(lookups={lookups}, width={width}, vocab={vocab})"
                );
            }
            OpKind::Elementwise {
                elems,
                ops_per_elem,
                label,
            } => {
                let _ = write!(
                    out,
                    "elementwise(elems={elems}, ops_per_elem={ops_per_elem}, label={label:?})"
                );
            }
            OpKind::Pool {
                batch,
                h,
                w,
                c,
                window,
            } => {
                let _ = write!(
                    out,
                    "pool(batch={batch}, h={h}, w={w}, c={c}, window={window})"
                );
            }
            OpKind::Concat { elems } => {
                let _ = write!(out, "concat(elems={elems})");
            }
            OpKind::AllToAll { bytes_per_chip } => {
                let _ = write!(out, "all_to_all(bytes_per_chip={bytes_per_chip})");
            }
            OpKind::AllReduce { bytes_per_chip } => {
                let _ = write!(out, "all_reduce(bytes_per_chip={bytes_per_chip})");
            }
            OpKind::Reshape { elems } => {
                let _ = write!(out, "reshape(elems={elems})");
            }
        }
        if !node.inputs.is_empty() {
            let refs: Vec<String> = node.inputs.iter().map(|i| format!("%{}", i.0)).collect();
            let _ = write!(out, " inputs=[{}]", refs.join(", "));
        }
        if node.fused {
            let _ = write!(out, " fused");
        }
        let _ = writeln!(out);
    }
    out.push_str("}\n");
    out
}

/// A parse failure with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGraphError {
    /// 1-based line of the offending text.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseGraphError {}

fn err(line: usize, message: impl Into<String>) -> ParseGraphError {
    ParseGraphError {
        line,
        message: message.into(),
    }
}

/// Splits `key=value` argument lists, respecting quoted strings.
fn parse_args(body: &str, line: usize) -> Result<Vec<(String, String)>, ParseGraphError> {
    let mut args = Vec::new();
    let mut depth_quote = false;
    let mut current = String::new();
    let mut parts = Vec::new();
    for ch in body.chars() {
        match ch {
            '"' => {
                depth_quote = !depth_quote;
                current.push(ch);
            }
            ',' if !depth_quote => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(ch),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    for part in parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected key=value, got '{part}'")))?;
        args.push((key.trim().to_string(), value.trim().to_string()));
    }
    Ok(args)
}

struct ArgMap {
    args: Vec<(String, String)>,
    line: usize,
}

impl ArgMap {
    fn get(&self, key: &str) -> Result<&str, ParseGraphError> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| err(self.line, format!("missing argument '{key}'")))
    }

    fn usize(&self, key: &str) -> Result<usize, ParseGraphError> {
        self.get(key)?
            .parse()
            .map_err(|_| err(self.line, format!("argument '{key}' is not an integer")))
    }

    /// A stride or window: zero would divide by zero in the cost model.
    fn positive(&self, key: &str) -> Result<usize, ParseGraphError> {
        match self.usize(key)? {
            0 => Err(err(self.line, format!("argument '{key}' must be positive"))),
            v => Ok(v),
        }
    }

    /// A per-element op count or byte count: NaN, infinite or negative
    /// values would turn into NaN, infinite or negative costs.
    fn f64(&self, key: &str) -> Result<f64, ParseGraphError> {
        let v: f64 = self
            .get(key)?
            .parse()
            .map_err(|_| err(self.line, format!("argument '{key}' is not a number")))?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(err(
                self.line,
                format!("argument '{key}' must be finite and non-negative"),
            ))
        }
    }

    fn string(&self, key: &str) -> Result<String, ParseGraphError> {
        let raw = self.get(key)?;
        Ok(raw.trim_matches('"').to_string())
    }
}

/// Parses the textual format back into a [`Graph`].
///
/// # Errors
///
/// Returns a [`ParseGraphError`] with the offending line on any syntax or
/// referential problem (unknown op, forward reference, bad argument).
pub fn parse(text: &str) -> Result<Graph, ParseGraphError> {
    let mut lines = text.lines().enumerate();
    // Header: graph "name" dtype=<d> {
    let (header_idx, header) = lines
        .by_ref()
        .find(|(_, l)| !l.trim().is_empty())
        .ok_or_else(|| err(1, "empty input"))?;
    let header_line = header_idx + 1;
    let header = header.trim();
    let rest = header
        .strip_prefix("graph ")
        .ok_or_else(|| err(header_line, "expected 'graph \"name\" dtype=... {'"))?;
    let (name, rest) = {
        let rest = rest.trim_start();
        if !rest.starts_with('"') {
            return Err(err(header_line, "graph name must be quoted"));
        }
        let end = rest[1..]
            .find('"')
            .ok_or_else(|| err(header_line, "unterminated graph name"))?;
        (rest[1..1 + end].to_string(), &rest[end + 2..])
    };
    let rest = rest.trim();
    let dtype_str = rest
        .strip_prefix("dtype=")
        .and_then(|r| r.strip_suffix('{'))
        .ok_or_else(|| err(header_line, "expected dtype=<d> {"))?
        .trim();
    let dtype = match dtype_str {
        "bf16" => DType::Bf16,
        "f32" => DType::F32,
        "i32" => DType::I32,
        other => return Err(err(header_line, format!("unknown dtype '{other}'"))),
    };
    let mut graph = Graph::new(name, dtype);

    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            return Ok(graph);
        }
        // %<id> = <op>(<args>) [inputs=[..]] [fused]
        let (lhs, rhs) = line
            .split_once('=')
            .ok_or_else(|| err(line_no, "expected '%id = op(...)'"))?;
        let expect_id: usize = lhs
            .trim()
            .strip_prefix('%')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(line_no, "node id must look like %N"))?;
        if expect_id != graph.len() {
            return Err(err(
                line_no,
                format!("node ids must be dense; expected %{}", graph.len()),
            ));
        }
        let rhs = rhs.trim();
        let open = rhs
            .find('(')
            .ok_or_else(|| err(line_no, "expected op(...)"))?;
        let close = rhs
            .rfind(')')
            .filter(|&close| close > open)
            .ok_or_else(|| err(line_no, "unterminated argument list"))?;
        let op_name = rhs[..open].trim();
        let args = ArgMap {
            args: parse_args(&rhs[open + 1..close], line_no)?,
            line: line_no,
        };
        let tail = rhs[close + 1..].trim();
        let (inputs, fused) = {
            let mut inputs = Vec::new();
            let mut fused = false;
            let mut tail = tail;
            if let Some(rest) = tail.strip_prefix("inputs=[") {
                let end = rest
                    .find(']')
                    .ok_or_else(|| err(line_no, "unterminated inputs"))?;
                for part in rest[..end].split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let id: usize = part
                        .strip_prefix('%')
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err(line_no, format!("bad input ref '{part}'")))?;
                    if id >= graph.len() {
                        return Err(err(line_no, format!("forward reference %{id}")));
                    }
                    inputs.push(NodeId(id));
                }
                tail = rest[end + 1..].trim();
            }
            if tail == "fused" {
                fused = true;
            } else if !tail.is_empty() {
                return Err(err(line_no, format!("unexpected trailing '{tail}'")));
            }
            (inputs, fused)
        };
        let kind = match op_name {
            "matmul" => OpKind::MatMul {
                m: args.usize("m")?,
                k: args.usize("k")?,
                n: args.usize("n")?,
            },
            "batched_matmul" => OpKind::BatchedMatMul {
                batches: args.usize("batches")?,
                m: args.usize("m")?,
                k: args.usize("k")?,
                n: args.usize("n")?,
            },
            "conv2d" => OpKind::Conv2d {
                batch: args.usize("batch")?,
                h: args.usize("h")?,
                w: args.usize("w")?,
                c_in: args.usize("c_in")?,
                c_out: args.usize("c_out")?,
                kh: args.usize("kh")?,
                kw: args.usize("kw")?,
                stride: args.positive("stride")?,
            },
            "depthwise_conv2d" => OpKind::DepthwiseConv2d {
                batch: args.usize("batch")?,
                h: args.usize("h")?,
                w: args.usize("w")?,
                c: args.usize("c")?,
                kh: args.usize("kh")?,
                kw: args.usize("kw")?,
                stride: args.positive("stride")?,
            },
            "embedding_lookup" => OpKind::EmbeddingLookup {
                lookups: args.usize("lookups")?,
                width: args.usize("width")?,
                vocab: args.usize("vocab")?,
            },
            "elementwise" => OpKind::Elementwise {
                elems: args.usize("elems")?,
                ops_per_elem: args.f64("ops_per_elem")?,
                label: args.string("label")?,
            },
            "pool" => OpKind::Pool {
                batch: args.usize("batch")?,
                h: args.usize("h")?,
                w: args.usize("w")?,
                c: args.usize("c")?,
                window: args.positive("window")?,
            },
            "concat" => OpKind::Concat {
                elems: args.usize("elems")?,
            },
            "all_to_all" => OpKind::AllToAll {
                bytes_per_chip: args.f64("bytes_per_chip")?,
            },
            "all_reduce" => OpKind::AllReduce {
                bytes_per_chip: args.f64("bytes_per_chip")?,
            },
            "reshape" => OpKind::Reshape {
                elems: args.usize("elems")?,
            },
            other => return Err(err(line_no, format!("unknown op '{other}'"))),
        };
        let id = graph.add(kind, &inputs);
        if fused {
            graph.set_fused(id, true);
        }
    }
    Err(err(text.lines().count(), "missing closing '}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        let mut g = Graph::new("sample", DType::Bf16);
        let a = g.add(OpKind::Reshape { elems: 128 }, &[]);
        let b = g.add(OpKind::MatMul { m: 8, k: 16, n: 4 }, &[a]);
        let c = g.add(
            OpKind::Elementwise {
                elems: 32,
                ops_per_elem: 10.0,
                label: "swish".into(),
            },
            &[b],
        );
        g.add(OpKind::Concat { elems: 64 }, &[b, c]);
        g.fuse_elementwise();
        g
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample_graph();
        let text = to_text(&g);
        let parsed = parse(&text).expect("parse");
        assert_eq!(parsed.name(), g.name());
        assert_eq!(parsed.dtype(), g.dtype());
        assert_eq!(parsed.len(), g.len());
        assert_eq!(parsed.total_cost(), g.total_cost());
        for (a, b) in g.nodes().iter().zip(parsed.nodes()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.fused, b.fused);
        }
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let mut g = Graph::new("all", DType::F32);
        let a = g.add(OpKind::Reshape { elems: 1 }, &[]);
        let b = g.add(
            OpKind::Conv2d {
                batch: 1,
                h: 8,
                w: 8,
                c_in: 3,
                c_out: 4,
                kh: 3,
                kw: 3,
                stride: 2,
            },
            &[a],
        );
        let c = g.add(
            OpKind::DepthwiseConv2d {
                batch: 1,
                h: 4,
                w: 4,
                c: 4,
                kh: 3,
                kw: 3,
                stride: 1,
            },
            &[b],
        );
        let d = g.add(
            OpKind::BatchedMatMul {
                batches: 2,
                m: 4,
                k: 4,
                n: 4,
            },
            &[c],
        );
        let e = g.add(
            OpKind::Pool {
                batch: 1,
                h: 4,
                w: 4,
                c: 4,
                window: 2,
            },
            &[d],
        );
        let f = g.add(
            OpKind::EmbeddingLookup {
                lookups: 10,
                width: 8,
                vocab: 100,
            },
            &[],
        );
        let h = g.add(
            OpKind::AllToAll {
                bytes_per_chip: 123.5,
            },
            &[f],
        );
        let i = g.add(
            OpKind::AllReduce {
                bytes_per_chip: 64.0,
            },
            &[e],
        );
        g.add(OpKind::Concat { elems: 10 }, &[h, i]);
        let parsed = parse(&to_text(&g)).expect("parse");
        assert_eq!(parsed.len(), g.len());
        assert_eq!(parsed.total_cost(), g.total_cost());
    }

    #[test]
    fn parse_rejects_forward_reference() {
        let text = "graph \"x\" dtype=bf16 {\n  %0 = concat(elems=1) inputs=[%1]\n}\n";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("forward reference"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn parse_rejects_unknown_op() {
        let text = "graph \"x\" dtype=bf16 {\n  %0 = frobnicate(elems=1)\n}\n";
        assert!(parse(text).unwrap_err().message.contains("unknown op"));
    }

    #[test]
    fn parse_rejects_missing_argument() {
        let text = "graph \"x\" dtype=bf16 {\n  %0 = matmul(m=1, k=2)\n}\n";
        assert!(parse(text)
            .unwrap_err()
            .message
            .contains("missing argument 'n'"));
    }

    #[test]
    fn parse_rejects_sparse_ids() {
        let text = "graph \"x\" dtype=bf16 {\n  %5 = reshape(elems=1)\n}\n";
        assert!(parse(text).unwrap_err().message.contains("dense"));
    }

    #[test]
    fn parse_rejects_missing_brace() {
        let text = "graph \"x\" dtype=bf16 {\n  %0 = reshape(elems=1)\n";
        assert!(parse(text).unwrap_err().message.contains("missing closing"));
    }

    #[test]
    fn parse_rejects_unmatched_parens_and_out_of_range_arguments() {
        let zero = "must be positive";
        let bad_float = "must be finite and non-negative";
        for (node, message) in [
            (")x(", "unterminated argument list".to_string()),
            (
                "conv2d(batch=1, h=8, w=8, c_in=3, c_out=4, kh=3, kw=3, stride=0)",
                format!("argument 'stride' {zero}"),
            ),
            (
                "depthwise_conv2d(batch=1, h=4, w=4, c=4, kh=3, kw=3, stride=0)",
                format!("argument 'stride' {zero}"),
            ),
            (
                "pool(batch=1, h=4, w=4, c=4, window=0)",
                format!("argument 'window' {zero}"),
            ),
            (
                "elementwise(elems=4, ops_per_elem=NaN, label=\"x\")",
                format!("argument 'ops_per_elem' {bad_float}"),
            ),
            (
                "elementwise(elems=4, ops_per_elem=inf, label=\"x\")",
                format!("argument 'ops_per_elem' {bad_float}"),
            ),
            (
                "all_to_all(bytes_per_chip=-5)",
                format!("argument 'bytes_per_chip' {bad_float}"),
            ),
            (
                "all_reduce(bytes_per_chip=-inf)",
                format!("argument 'bytes_per_chip' {bad_float}"),
            ),
        ] {
            let text = format!("graph \"x\" dtype=bf16 {{\n  %0 = {node}\n}}\n");
            let e = parse(&text).unwrap_err();
            assert_eq!((e.line, e.message), (2, message), "{node}");
        }
    }

    #[test]
    fn labels_with_commas_survive() {
        let mut g = Graph::new("q", DType::Bf16);
        g.add(
            OpKind::Elementwise {
                elems: 4,
                ops_per_elem: 1.0,
                label: "a,b".into(),
            },
            &[],
        );
        let parsed = parse(&to_text(&g)).expect("parse");
        assert_eq!(parsed.node(NodeId(0)).kind.label(), "a,b");
    }

    #[test]
    fn coatnet_graph_roundtrips_through_text() {
        // A realistically large model survives the format.
        let g = {
            let mut g = Graph::new("big", DType::Bf16);
            let mut prev = g.add(
                OpKind::Reshape {
                    elems: 3 * 224 * 224,
                },
                &[],
            );
            for i in 0..50 {
                prev = g.add(
                    OpKind::MatMul {
                        m: 64,
                        k: 64 + i,
                        n: 64,
                    },
                    &[prev],
                );
            }
            g
        };
        let parsed = parse(&to_text(&g)).expect("parse");
        assert_eq!(parsed.len(), 51);
        assert_eq!(parsed.total_flops(), g.total_flops());
    }
}
