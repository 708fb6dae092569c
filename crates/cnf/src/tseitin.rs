//! Tseitin encoding of combinational AIG cones.
//!
//! The encoder walks an AIG cone and emits, for every AND node, the three
//! standard Tseitin clauses relating a fresh SAT variable to its fan-ins.
//! Leaf nodes (primary inputs and latches) are mapped to SAT literals by a
//! caller-supplied closure, which is how the time-frame [`crate::Unroller`]
//! and the interpolant re-encoding in the model checker hook frame-specific
//! variables into the encoding.

use crate::{CnfBuilder, Lit};
use aig::{Aig, AigNode, NodeId};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Memo of encoded nodes: AIG node → SAT literal.
///
/// Node ids are dense integers produced by the program itself, so the
/// cache hashes them with one multiplication ([`NodeHasher`]) instead of
/// the default SipHash; lookups sit on the innermost loop of every
/// encoding.
pub type NodeCache = HashMap<NodeId, Lit, BuildHasherDefault<NodeHasher>>;

/// A set of AIG nodes, hashed like [`NodeCache`].
pub type NodeSet = HashSet<NodeId, BuildHasherDefault<NodeHasher>>;

/// Multiplicative (Fibonacci) hasher for node ids: the key times the
/// 64-bit golden ratio.  The product's low bits depend only on the key's
/// low bits, so [`finish`](Hasher::finish) rotates the well-mixed middle
/// bits into the low bits the table indexes with.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeHasher(u64);

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for NodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(byte)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(GOLDEN);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Encodes the cone of `root` into `builder`, returning the SAT literal
/// equisatisfiably equal to `root`.
///
/// * `leaf` maps a non-AND node (input or latch) to its SAT literal; it is
///   called at most once per node thanks to `cache`.
/// * `cache` memoises the encoding of every visited node, so repeated calls
///   with the same cache share the Tseitin variables and clauses of common
///   sub-cones.
///
/// A constant root is encoded by allocating a fresh variable constrained to
/// the constant value with a unit clause.
pub fn encode_cone(
    builder: &mut CnfBuilder,
    aig: &Aig,
    root: aig::Lit,
    cache: &mut NodeCache,
    leaf: &mut dyn FnMut(&mut CnfBuilder, NodeId) -> Lit,
) -> Lit {
    let node_lit = encode_node(builder, aig, root.node(), cache, leaf);
    if root.is_complemented() {
        !node_lit
    } else {
        node_lit
    }
}

fn encode_node(
    builder: &mut CnfBuilder,
    aig: &Aig,
    node: NodeId,
    cache: &mut NodeCache,
    leaf: &mut dyn FnMut(&mut CnfBuilder, NodeId) -> Lit,
) -> Lit {
    if let Some(&lit) = cache.get(&node) {
        return lit;
    }
    // Iterative DFS so deep cones cannot overflow the call stack.
    let mut stack = vec![(node, false)];
    while let Some((id, expanded)) = stack.pop() {
        if cache.contains_key(&id) {
            continue;
        }
        match aig.node(id) {
            AigNode::Const => {
                // A fresh variable pinned to false represents the constant.
                let v = builder.new_lit();
                builder.add_unit(!v);
                cache.insert(id, v);
            }
            AigNode::Input { .. } | AigNode::Latch { .. } => {
                let lit = leaf(builder, id);
                cache.insert(id, lit);
            }
            AigNode::And { left, right } => {
                if expanded {
                    let l = cache[&left.node()].xor_sign(left.is_complemented());
                    let r = cache[&right.node()].xor_sign(right.is_complemented());
                    let out = builder.new_lit();
                    // out -> l, out -> r, (l & r) -> out
                    builder.add_clause([!out, l]);
                    builder.add_clause([!out, r]);
                    builder.add_clause([out, !l, !r]);
                    cache.insert(id, out);
                } else {
                    stack.push((id, true));
                    stack.push((left.node(), false));
                    stack.push((right.node(), false));
                }
            }
        }
    }
    cache[&node]
}

/// Small helper used by the encoder: conditionally complements a literal.
trait XorSign {
    fn xor_sign(self, negate: bool) -> Self;
}

impl XorSign for Lit {
    fn xor_sign(self, negate: bool) -> Lit {
        if negate {
            !self
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CnfBuilder;
    use aig::Aig;

    /// Exhaustively checks that the encoding of `root` is functionally
    /// equivalent to the AIG evaluation over all input assignments.
    fn check_equivalence(aig: &Aig, root: aig::Lit) {
        let n = aig.num_inputs();
        for assignment in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (assignment >> i) & 1 == 1).collect();
            let expected = aig.eval(root, &inputs, &[]);

            let mut builder = CnfBuilder::new();
            // Allocate one SAT var per primary input, in order.
            let input_vars: Vec<Lit> = (0..n).map(|_| builder.new_lit()).collect();
            let mut cache = NodeCache::default();
            let root_lit = encode_cone(&mut builder, aig, root, &mut cache, &mut |_, id| match aig
                .node(id)
            {
                aig::AigNode::Input { index } => input_vars[index],
                _ => unreachable!("combinational cone has only input leaves"),
            });
            // Pin the inputs and the root, then check satisfiability by
            // brute-force evaluation over the auxiliary variables.
            for (i, &lit) in input_vars.iter().enumerate() {
                builder.add_unit(if inputs[i] { lit } else { !lit });
            }
            builder.add_unit(root_lit);
            let cnf = builder.into_cnf();
            let satisfiable = brute_force_sat(&cnf);
            assert_eq!(
                satisfiable, expected,
                "assignment {assignment:b}: encoding disagrees with evaluation"
            );
        }
    }

    fn brute_force_sat(cnf: &crate::Cnf) -> bool {
        let n = cnf.num_vars;
        assert!(n <= 20, "brute force limited to small formulas");
        (0..(1u64 << n)).any(|bits| {
            let assignment: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            cnf.evaluate(&assignment)
        })
    }

    #[test]
    fn encodes_single_and_gate() {
        let mut aig = Aig::new();
        let a = aig::Lit::positive(aig.add_input());
        let b = aig::Lit::positive(aig.add_input());
        let g = aig.and(a, b);
        check_equivalence(&aig, g);
        check_equivalence(&aig, !g);
    }

    #[test]
    fn encodes_xor_cone() {
        let mut aig = Aig::new();
        let a = aig::Lit::positive(aig.add_input());
        let b = aig::Lit::positive(aig.add_input());
        let x = aig.xor(a, b);
        check_equivalence(&aig, x);
    }

    #[test]
    fn encodes_mux_cone() {
        let mut aig = Aig::new();
        let s = aig::Lit::positive(aig.add_input());
        let a = aig::Lit::positive(aig.add_input());
        let b = aig::Lit::positive(aig.add_input());
        let m = aig.mux(s, a, b);
        check_equivalence(&aig, m);
    }

    #[test]
    fn encodes_constant_root() {
        let aig = Aig::new();
        let mut builder = CnfBuilder::new();
        let mut cache = NodeCache::default();
        let t = encode_cone(
            &mut builder,
            &aig,
            aig::Lit::TRUE,
            &mut cache,
            &mut |_, _| unreachable!(),
        );
        builder.add_unit(t);
        assert!(brute_force_sat(&builder.clone().into_cnf()));
        let mut builder2 = CnfBuilder::new();
        let mut cache2 = NodeCache::default();
        let f = encode_cone(
            &mut builder2,
            &aig,
            aig::Lit::FALSE,
            &mut cache2,
            &mut |_, _| unreachable!(),
        );
        builder2.add_unit(f);
        assert!(!brute_force_sat(&builder2.into_cnf()));
    }

    #[test]
    fn cache_shares_common_subcones() {
        let mut aig = Aig::new();
        let a = aig::Lit::positive(aig.add_input());
        let b = aig::Lit::positive(aig.add_input());
        let g = aig.and(a, b);
        let h = aig.or(g, a);
        let mut builder = CnfBuilder::new();
        let vars: Vec<Lit> = (0..2).map(|_| builder.new_lit()).collect();
        let mut cache = NodeCache::default();
        let mut leaf = |_: &mut CnfBuilder, id: aig::NodeId| match aig.node(id) {
            aig::AigNode::Input { index } => vars[index],
            _ => unreachable!(),
        };
        let _ = encode_cone(&mut builder, &aig, g, &mut cache, &mut leaf);
        let clauses_after_first = builder.num_clauses();
        let _ = encode_cone(&mut builder, &aig, h, &mut cache, &mut leaf);
        // The second cone re-uses the AND gate already encoded, so it adds at
        // most the clauses of the extra OR structure.
        assert!(builder.num_clauses() > clauses_after_first);
        assert!(builder.num_clauses() <= clauses_after_first + 3);
    }
}
