//! Credit/buffer conservation: a symbolic proof over the router
//! pipeline's operation set, plus a conformance check against the live
//! network.
//!
//! # The ledger
//!
//! For one (link, VC) pair, every buffer slot of the downstream input VC
//! is, at any instant, in exactly one of four places:
//!
//! | component | meaning |
//! |---|---|
//! | `c` | credits held by the upstream router (slots it may still fill) |
//! | `b` | occupied downstream buffer slots |
//! | `r` | credit returns in flight back upstream |
//! | `h` | credits held by the reshaper mid-grow (`try_take_credits`) |
//!
//! Conservation says `c + b + r + h == buffer_depth`, always. Each way
//! the shipped code moves a slot between components is captured as a
//! [`LedgerOp`] — a guard plus a delta vector — covering the
//! compute/commit pipeline, the faults-retransmission drop path, escape
//! routing (which departs like any other grant), and the in-place
//! packet reshaping paths. [`check_conservation`] then explores *every*
//! reachable ledger state (the space is tiny) and proves that no
//! operation sequence can leak a credit (sum < depth), double-free one
//! (sum > depth), or drive any component negative. Because ops are data,
//! the mutation suite (`tests/verify_mutations.rs`) can delete a credit
//! increment or drop a guard and assert the proof fails.
//!
//! # Live conformance
//!
//! The symbolic proof is about the *rules*; [`verify_live_credits`]
//! checks the *implementation* follows them: it drains traffic through a
//! real [`disco_noc::Network`] and asserts every (link, VC) ledger
//! returns to exactly `c == buffer_depth` at quiescence. This is
//! strictly stronger than the per-cycle debug-build check, which only
//! bounds `credits + occupancy ≤ depth` mid-flight.

use crate::explorer::{self, ExploreOptions, ExploreReport, TransitionSystem};
use disco_noc::{Network, NocConfig, NodeId, PacketClass, Payload, PortId, TopologyChoice};

/// Index of each ledger component.
const C: usize = 0;
const B: usize = 1;
const R: usize = 2;
const H: usize = 3;

/// One way the router pipeline moves buffer slots between ledger
/// components: enabled when every component is at least its `guard`,
/// then shifts by `delta`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerOp {
    /// Which code path this op models.
    pub name: String,
    /// Minimum component values required to fire.
    pub guard: [i16; 4],
    /// Component changes applied on firing.
    pub delta: [i16; 4],
}

/// The ledger operations of the shipped router pipeline for one
/// (link, VC) at the given buffer depth.
///
/// - `depart` — commit pass sends a flit downstream: an upstream credit
///   is consumed, a downstream slot fills (`commit.rs` departure +
///   `Router::accept`). Escape-VC departures take this same path.
/// - `drain` — downstream forwards/ejects the flit; the freed slot's
///   credit return enters the reverse link (`commit.rs` →
///   `return_credit` on the upstream router).
/// - `credit-return` — the in-flight return lands upstream.
/// - `fault-drop` — the faults layer eats a corrupted flit at the
///   ejection port but still frees the slot and returns the credit
///   (`faults.rs` drop/retransmission path); same shape as `drain`,
///   listed separately so deleting it in a mutation leaves the proof
///   intact while *altering* it breaks conservation.
/// - `reshape-shrink(k)` — in-place recompression frees `k` tail slots;
///   their credits return upstream synchronously (`reshape_resident` →
///   `return_credit` × k).
/// - `reshape-grow-hold(k)` — decompression-in-place first reserves `k`
///   upstream credits (`try_take_credits`), holding them.
/// - `reshape-grow-commit(k)` — the grown flits materialize in the
///   reserved slots (`reshape_packet`), converting held credits into
///   occupancy.
pub fn live_ops(depth: i16) -> Vec<LedgerOp> {
    let mut ops = vec![
        LedgerOp {
            name: "depart".to_string(),
            guard: [1, 0, 0, 0],
            delta: [-1, 1, 0, 0],
        },
        LedgerOp {
            name: "drain".to_string(),
            guard: [0, 1, 0, 0],
            delta: [0, -1, 1, 0],
        },
        LedgerOp {
            name: "credit-return".to_string(),
            guard: [0, 0, 1, 0],
            delta: [1, 0, -1, 0],
        },
        LedgerOp {
            name: "fault-drop".to_string(),
            guard: [0, 1, 0, 0],
            delta: [0, -1, 1, 0],
        },
    ];
    for k in 1..=depth {
        ops.push(LedgerOp {
            name: format!("reshape-shrink({k})"),
            guard: [0, k, 0, 0],
            delta: [k, -k, 0, 0],
        });
        ops.push(LedgerOp {
            name: format!("reshape-grow-hold({k})"),
            guard: [k, 0, 0, 0],
            delta: [-k, 0, 0, k],
        });
        ops.push(LedgerOp {
            name: format!("reshape-grow-commit({k})"),
            guard: [0, 0, 0, k],
            delta: [0, k, 0, -k],
        });
    }
    ops
}

/// The symbolic per-VC credit ledger as a transition system.
pub struct CreditLedger {
    /// Buffer depth (the conserved total).
    pub depth: i16,
    /// The operation set under proof.
    pub ops: Vec<LedgerOp>,
}

impl CreditLedger {
    /// The shipped pipeline's ledger at `depth`.
    pub fn live(depth: i16) -> Self {
        Self {
            depth,
            ops: live_ops(depth),
        }
    }
}

impl TransitionSystem for CreditLedger {
    type State = [i16; 4];

    fn initial(&self) -> Vec<[i16; 4]> {
        // Reset: all slots are upstream credits.
        vec![[self.depth, 0, 0, 0]]
    }

    fn enabled(&self, s: &[i16; 4]) -> Vec<String> {
        self.ops
            .iter()
            .filter(|op| (0..4).all(|i| s[i] >= op.guard[i]))
            .map(|op| {
                format!(
                    "{} @ [c={} b={} r={} h={}]",
                    op.name, s[C], s[B], s[R], s[H]
                )
            })
            .collect()
    }

    fn apply(&self, s: &[i16; 4], i: usize) -> [i16; 4] {
        let fireable: Vec<&LedgerOp> = self
            .ops
            .iter()
            .filter(|op| (0..4).all(|j| s[j] >= op.guard[j]))
            .collect();
        let op = fireable[i];
        let mut next = *s;
        for (component, delta) in next.iter_mut().zip(op.delta) {
            *component += delta;
        }
        next
    }

    fn check(&self, s: &[i16; 4]) -> Vec<String> {
        let mut violations = Vec::new();
        let sum: i16 = s.iter().sum();
        if sum < self.depth {
            violations.push(format!(
                "credit leak: c+b+r+h = {sum} < depth {} at [c={} b={} r={} h={}]",
                self.depth, s[C], s[B], s[R], s[H]
            ));
        }
        if sum > self.depth {
            violations.push(format!(
                "credit double-free: c+b+r+h = {sum} > depth {} at [c={} b={} r={} h={}]",
                self.depth, s[C], s[B], s[R], s[H]
            ));
        }
        for (i, name) in ["credits", "occupancy", "returns", "held"]
            .iter()
            .enumerate()
        {
            if s[i] < 0 {
                violations.push(format!(
                    "{name} driven negative ({}) — an op fired without a sufficient guard",
                    s[i]
                ));
            }
        }
        violations
    }

    fn quiescent(&self, _s: &[i16; 4]) -> bool {
        // The ledger has no liveness obligation; depth 0 has no ops.
        true
    }

    fn encode(&self, s: &[i16; 4]) -> Vec<u8> {
        s.iter().flat_map(|v| v.to_le_bytes()).collect()
    }
}

/// Proves conservation for the shipped operation set at `depth` by
/// exhaustive reachability over the ledger space.
pub fn check_conservation(ledger: &CreditLedger) -> ExploreReport {
    explorer::explore(
        ledger,
        &ExploreOptions {
            // The reachable space is all non-negative 4-compositions of
            // `depth` — well under these bounds.
            max_depth: 4 * ledger.depth.unsigned_abs() as usize + 8,
            max_states: 100_000,
            workers: 1,
            max_violations: 4,
        },
    )
}

/// Conformance: after draining real traffic, every (link, VC) ledger of
/// a live [`Network`] must hold *exactly* `buffer_depth` credits — a
/// leak leaves fewer, a double-free more. The check runs over every
/// shipped topology (at its minimum legal VC count) so the wrapped
/// shapes' dateline allocation and the concentrated mesh's shared
/// routers are covered too. Returns a summary on success, or every
/// discrepancy found.
///
/// # Errors
///
/// One entry per (topology, link, VC) whose credit count differs from
/// `buffer_depth` at quiescence, or a description of a non-draining run.
pub fn verify_live_credits() -> Result<String, Vec<String>> {
    let mut errors = Vec::new();
    let mut links = 0usize;
    let mut delivered = 0usize;
    let depth = NocConfig::default().buffer_depth;
    for choice in TopologyChoice::ALL {
        match verify_live_credits_on(choice) {
            Ok((l, d)) => {
                links += l;
                delivered += d;
            }
            Err(mut e) => errors.append(&mut e),
        }
    }
    if errors.is_empty() {
        Ok(format!(
            "{} topologies, {links} (link, VC) ledgers at exactly {depth} credits after \
             {delivered} deliveries",
            TopologyChoice::ALL.len()
        ))
    } else {
        Err(errors)
    }
}

/// One topology's drain-and-audit leg: returns (ledgers checked,
/// packets delivered) or the list of discrepancies.
fn verify_live_credits_on(choice: TopologyChoice) -> Result<(usize, usize), Vec<String>> {
    let topo = choice.build(4, 4);
    let config = NocConfig {
        vcs: topo.min_vcs().max(NocConfig::default().vcs),
        ..NocConfig::default()
    };
    let mut net = Network::new(topo, config);
    // Cross traffic on all three classes, including multi-flit raw data
    // responses, so every link direction and both VC groups carry flits.
    let tiles = net.topology().tiles();
    let mut tag = 0u64;
    for (src, dst) in [
        (0usize, 15usize),
        (15, 0),
        (3, 12),
        (12, 3),
        (5, 10),
        (10, 5),
    ] {
        for class in [
            PacketClass::Request,
            PacketClass::Response,
            PacketClass::Coherence,
        ] {
            let payload = if class == PacketClass::Response {
                Payload::Raw(disco_compress::CacheLine::from_u64_words([tag; 8]))
            } else {
                Payload::None
            };
            net.send(
                NodeId(src),
                NodeId(dst),
                class,
                payload,
                class == PacketClass::Response,
                tag,
            );
            tag += 1;
        }
    }
    let mut delivered = 0usize;
    for _ in 0..10_000 {
        net.tick();
        for n in 0..tiles {
            delivered += net.take_delivered(NodeId(n)).len();
        }
        if net.is_idle() {
            break;
        }
    }
    if !net.is_idle() {
        return Err(vec![format!(
            "{choice}: network failed to drain ({delivered} of {tag} packets delivered)"
        )]);
    }
    let mut errors = Vec::new();
    let depth = net.config().buffer_depth;
    let vcs = net.config().vcs;
    let mut links = 0usize;
    for n in 0..net.topology().routers() {
        let router = net.router(NodeId(n));
        for port in 0..net.topology().link_ports() {
            let port = PortId(port);
            if net.topology().out_link(NodeId(n), port).is_none() {
                continue;
            }
            for vc in 0..vcs {
                links += 1;
                let credits = router.credit_in(port, vc);
                if credits != depth {
                    errors.push(format!(
                        "{choice}: router {n} port {} vc{vc}: {credits} credits at \
                         quiescence, expected exactly {depth}",
                        port.0
                    ));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok((links, delivered))
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_ops_conserve_at_depths() {
        for depth in [1i16, 2, 4, 8] {
            let report = check_conservation(&CreditLedger::live(depth));
            assert!(report.clean(), "depth {depth}: {:?}", report.violations);
            assert!(!report.truncated, "depth {depth} must explore fully");
            // All 4-compositions of depth are reachable:
            // (depth+1)(depth+2)(depth+3)/6 states.
            let d = depth as u64;
            assert_eq!(report.states, (d + 1) * (d + 2) * (d + 3) / 6);
        }
    }

    #[test]
    fn dropped_credit_increment_leaks() {
        // The classic bug: the drain path frees the buffer slot but
        // forgets to send the credit back.
        let mut ledger = CreditLedger::live(4);
        for op in &mut ledger.ops {
            if op.name == "drain" {
                op.delta = [0, -1, 0, 0];
            }
        }
        let report = check_conservation(&ledger);
        assert!(!report.clean());
        assert!(report.violations[0].messages[0].contains("leak"));
    }

    #[test]
    fn unguarded_return_double_frees() {
        let mut ledger = CreditLedger::live(4);
        for op in &mut ledger.ops {
            if op.name == "credit-return" {
                op.guard = [0, 0, 0, 0];
            }
        }
        let report = check_conservation(&ledger);
        assert!(!report.clean());
        let all: String = report.violations[0].messages.join("; ");
        assert!(
            all.contains("double-free") || all.contains("negative"),
            "{all}"
        );
    }

    #[test]
    fn live_network_conserves_credits() {
        let summary = verify_live_credits().expect("conformance holds");
        assert!(summary.contains("exactly 8 credits"));
    }
}
