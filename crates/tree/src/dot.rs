//! Graphviz export for auxiliary-key trees (debugging aid).
//!
//! `tree.to_dot()` renders the structure the paper draws in Figures 4–6:
//! interior auxiliary-key nodes, occupied leaves labeled with their
//! member, and vacant leaves (Mykil keeps them) dashed.

use crate::tree::{KeyTree, NodeIdx};
use std::fmt::Write;

impl KeyTree {
    /// Renders the tree in Graphviz `dot` syntax.
    ///
    /// Key *values* are never included — only structure, key versions,
    /// and occupancy.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph key_tree {\n  node [shape=circle];\n");
        for i in 0..self.node_count() {
            let node = NodeIdx::from_raw(i);
            let version = self.version_of(node);
            let children = self.children_of(node);
            if i == 0 {
                let _ = writeln!(
                    out,
                    "  k{i} [label=\"area key\\nv{version}\", shape=doublecircle];"
                );
            } else if !children.is_empty() {
                let _ = writeln!(out, "  k{i} [label=\"k{i}\\nv{version}\"];");
            } else if let Some(m) = self.occupant_of(node) {
                let _ = writeln!(
                    out,
                    "  k{i} [label=\"{m}\\nv{version}\", shape=box];"
                );
            } else {
                let _ = writeln!(
                    out,
                    "  k{i} [label=\"vacant\", shape=box, style=dashed];"
                );
            }
            for c in children {
                let _ = writeln!(out, "  k{i} -> k{};", c.raw());
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::{KeyTree, TreeConfig};
    use crate::MemberId;
    use mykil_crypto::drbg::Drbg;

    #[test]
    fn dot_contains_structure_not_keys() {
        let mut rng = Drbg::from_seed(1);
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut rng);
        for m in 0..6 {
            tree.join(MemberId(m), &mut rng).unwrap();
        }
        tree.leave(MemberId(2), &mut rng).unwrap();
        let dot = tree.to_dot();
        assert!(dot.starts_with("digraph key_tree {"));
        assert!(dot.contains("area key"));
        assert!(dot.contains("m0"));
        assert!(dot.contains("vacant"), "kept empty leaf must render");
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
        // One node line per tree node.
        let boxes = dot.matches("shape=box").count();
        assert!(boxes >= 6, "all leaves rendered: {boxes}");
        // No 32-hex-char key material anywhere.
        assert!(!dot
            .split_whitespace()
            .any(|w| w.len() >= 32 && w.chars().all(|c| c.is_ascii_hexdigit())));
    }

    #[test]
    fn empty_tree_renders_root_only() {
        let mut rng = Drbg::from_seed(2);
        let tree = KeyTree::new(TreeConfig::binary(), &mut rng);
        let dot = tree.to_dot();
        assert!(dot.contains("area key"));
        assert!(!dot.contains("->"));
    }
}
