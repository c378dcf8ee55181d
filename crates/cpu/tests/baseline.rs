//! Integration tests of the baseline cores against the directory: a
//! miniature system (N cores + 1 directory + fabric) driven to completion.
//!
//! These tests validate the substrate the BulkSC comparison stands on:
//! values flow correctly through MESI, the SC baseline really is
//! sequentially consistent (litmus), and RC really is weaker (the
//! store-buffering outcome is reachable).

use bulksc_cpu::{BaselineModel, BaselineNode, CoreConfig, ValueStore};
use bulksc_mem::{CacheConfig, DirConfig, DirOrganization, Directory};
use bulksc_net::{Envelope, Fabric, FabricConfig, NodeId};
use bulksc_sig::Addr;
use bulksc_workloads::{litmus, Instr, ScriptOp, ScriptProgram, ThreadProgram};

struct Mini {
    nodes: Vec<BaselineNode>,
    dir: Directory,
    fab: Fabric,
    values: ValueStore,
    now: u64,
}

impl Mini {
    fn new(model: BaselineModel, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        let nodes = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                BaselineNode::new(
                    i as u32,
                    model,
                    CoreConfig::default(),
                    CacheConfig::l1_default(),
                    p,
                    u64::MAX,
                )
            })
            .collect();
        Mini {
            nodes,
            dir: Directory::new(
                NodeId::Dir(0),
                DirConfig {
                    organization: DirOrganization::FullMap { sets: 1024 },
                    mem_extra: 50,
                    l2_extra: 2,
                    ..DirConfig::default()
                },
            ),
            fab: Fabric::new(FabricConfig { hop_latency: 3 }),
            values: ValueStore::new(),
            now: 0,
        }
    }

    fn step(&mut self) {
        let due: Vec<Envelope> = self.fab.deliver_due(self.now);
        for env in due {
            match env.dst {
                NodeId::Core(c) => {
                    self.nodes[c as usize].handle(self.now, env, &mut self.fab, &mut self.values)
                }
                NodeId::Dir(_) => self.dir.handle(self.now, env, &mut self.fab, &self.values),
                other => panic!("unexpected destination {other:?}"),
            }
        }
        for n in &mut self.nodes {
            n.tick(self.now, &mut self.fab, &mut self.values);
        }
        self.now += 1;
    }

    fn run(&mut self, max_cycles: u64) -> bool {
        while self.now < max_cycles {
            if self.nodes.iter().all(|n| n.finished()) && self.fab.is_idle() {
                return true;
            }
            self.step();
        }
        false
    }

    fn observations(&self) -> Vec<Vec<u64>> {
        self.nodes
            .iter()
            .map(|n| n.program().observations())
            .collect()
    }
}

fn script(ops: Vec<ScriptOp>) -> Box<dyn ThreadProgram> {
    Box::new(ScriptProgram::new(ops))
}

#[test]
fn single_core_executes_and_stores_values() {
    for model in [
        BaselineModel::Sc,
        BaselineModel::Tso,
        BaselineModel::Rc,
        BaselineModel::Scpp,
    ] {
        let p = script(vec![
            ScriptOp::Op(Instr::Compute(20)),
            ScriptOp::Op(Instr::Store {
                addr: Addr(100),
                value: 7,
            }),
            ScriptOp::Op(Instr::Store {
                addr: Addr(200),
                value: 8,
            }),
            ScriptOp::Record(Addr(100)),
        ]);
        let mut m = Mini::new(model, vec![p]);
        assert!(m.run(100_000), "{model:?} did not finish");
        assert_eq!(m.values.read(Addr(100)), 7, "{model:?}");
        assert_eq!(m.values.read(Addr(200)), 8, "{model:?}");
        assert_eq!(m.observations()[0], vec![7], "{model:?}");
    }
}

#[test]
fn values_flow_between_cores() {
    // Core 0 writes, then sets a flag; core 1 spins on the flag and reads.
    for model in [
        BaselineModel::Sc,
        BaselineModel::Tso,
        BaselineModel::Rc,
        BaselineModel::Scpp,
    ] {
        let t0 = script(vec![
            ScriptOp::Op(Instr::Store {
                addr: Addr(100),
                value: 55,
            }),
            ScriptOp::Op(Instr::Store {
                addr: Addr(200),
                value: 1,
            }),
        ]);
        let t1 = script(vec![
            ScriptOp::SpinUntilEq {
                addr: Addr(200),
                value: 1,
                pad: 4,
            },
            ScriptOp::Record(Addr(100)),
        ]);
        let mut m = Mini::new(model, vec![t0, t1]);
        assert!(m.run(500_000), "{model:?} did not finish");
        // Under SC, TSO, and SC++ (and even RC here: the store buffer
        // drains in order) the data must be visible once the flag is.
        // TSO's W->W order is the message-passing guarantee.
        if model != BaselineModel::Rc {
            assert_eq!(m.observations()[1], vec![55], "{model:?}");
        }
    }
}

#[test]
fn locks_serialize_critical_sections() {
    let lock = Addr(0);
    let counter = Addr(64);
    let incr = |tag: u64| {
        script(vec![
            ScriptOp::AcquireLock(lock),
            ScriptOp::Record(counter),
            ScriptOp::Op(Instr::Store {
                addr: counter,
                value: tag,
            }),
            ScriptOp::ReleaseLock(lock),
        ])
    };
    let mut m = Mini::new(BaselineModel::Sc, vec![incr(1), incr(2)]);
    assert!(m.run(2_000_000), "lock test did not finish");
    let obs = m.observations();
    let (a, b) = (obs[0][0], obs[1][0]);
    assert!(
        (a == 0 && b == 1) || (b == 0 && a == 2),
        "critical sections interleaved: a={a}, b={b}"
    );
    assert_eq!(m.values.read(lock), 0, "lock released at the end");
}

#[test]
fn sc_baseline_is_sequentially_consistent_on_litmus() {
    for test in litmus::catalog() {
        for skew in 0..12u32 {
            let skews: Vec<u32> = (0..test.threads())
                .map(|t| (skew + t as u32 * 3) % 17)
                .collect();
            let mut m = Mini::new(BaselineModel::Sc, test.programs(&skews));
            assert!(m.run(1_000_000), "{}: did not finish", test.name);
            let obs = m.observations();
            assert!(
                !(test.forbidden)(&obs),
                "{}: SC baseline produced forbidden outcome {obs:?} (skew {skew})",
                test.name
            );
        }
    }
}

#[test]
fn rc_exhibits_store_buffering_reordering() {
    // RC's store buffer lets both loads of the SB litmus read 0 — the
    // outcome SC forbids. It should appear with symmetric timing.
    let test = litmus::store_buffering();
    let mut seen_forbidden = false;
    for skew in 0..20u32 {
        let mut m = Mini::new(
            BaselineModel::Rc,
            test.programs(&[skew % 5, (skew * 7) % 5]),
        );
        assert!(m.run(1_000_000), "did not finish");
        if (test.forbidden)(&m.observations()) {
            seen_forbidden = true;
            break;
        }
    }
    assert!(
        seen_forbidden,
        "RC never reordered store->load; the baseline is too strict"
    );
}

/// TSO's whole character in one test: the plain store-buffering
/// reordering is reachable (the FIFO buffer delays each core's store
/// past the other's load), yet inserting a fence between the store and
/// the load — which drains the buffer before retiring — forbids it
/// again at the exact same skews. SC forbids it even without the fence.
///
/// The programs are hand-built rather than taken from the litmus
/// catalog because the catalog's long compute pad closes the window in
/// this harness: the store's exclusive prefetch goes out the moment the
/// store enters the issue window, so the remote invalidation lands
/// ~40 cycles before the load can retire, and TSO's load revalidation
/// (unlike RC, which keeps the stale value) then re-reads the new
/// value. A short pad lets the load retire inside the window the FIFO
/// buffer opens — exactly the reordering x86 exhibits.
#[test]
fn tso_exhibits_store_buffering_unless_fenced() {
    let x = Addr(0x100);
    let y = Addr(0x1100); // different cache lines
    let sb = |mine: Addr, other: Addr, skew: u32, fence: bool| {
        let mut ops = vec![
            ScriptOp::WarmRead(mine),
            ScriptOp::WarmRead(other),
            ScriptOp::Op(Instr::Compute(4 + skew)),
            ScriptOp::Op(Instr::Store {
                addr: mine,
                value: 1,
            }),
        ];
        if fence {
            ops.push(ScriptOp::Op(Instr::Fence));
        }
        ops.push(ScriptOp::Record(other));
        script(ops)
    };

    let mut seen_forbidden = false;
    for skew in 0..20u32 {
        let skews = [skew % 5, (skew * 7) % 5];

        // Unfenced under TSO: hunt the forbidden (0, 0).
        let mut m = Mini::new(
            BaselineModel::Tso,
            vec![sb(x, y, skews[0], false), sb(y, x, skews[1], false)],
        );
        assert!(m.run(1_000_000), "unfenced SB did not finish");
        let obs = m.observations();
        if obs[0][0] == 0 && obs[1][0] == 0 {
            seen_forbidden = true;
        }

        // The same programs under SC: the store performs at the head
        // before the load may retire, so (0, 0) must never appear.
        let mut m = Mini::new(
            BaselineModel::Sc,
            vec![sb(x, y, skews[0], false), sb(y, x, skews[1], false)],
        );
        assert!(m.run(1_000_000), "SC SB did not finish");
        let obs = m.observations();
        assert!(
            obs[0][0] == 1 || obs[1][0] == 1,
            "SC read (0,0) on the SB pair at skew {skew}"
        );

        // Fenced under TSO: the mfence drains the buffer before the
        // load retires, restoring the SC outcome at the same skews.
        let mut m = Mini::new(
            BaselineModel::Tso,
            vec![sb(x, y, skews[0], true), sb(y, x, skews[1], true)],
        );
        assert!(m.run(1_000_000), "fenced SB did not finish");
        let obs = m.observations();
        assert!(
            obs[0][0] == 1 || obs[1][0] == 1,
            "fenced SB read (0,0) under TSO at skew {skew}: the mfence \
             did not drain the store buffer"
        );
    }
    assert!(
        seen_forbidden,
        "TSO never reordered store->load; the baseline is too strict"
    );
}

#[test]
fn scpp_squashes_on_remote_conflicts_but_stays_live() {
    // Core 0 repeatedly writes a line core 1 keeps reading: core 1 (SC++)
    // must absorb invalidation-induced squashes and still finish.
    let t0 = script(
        (0..50)
            .flat_map(|i| {
                vec![
                    ScriptOp::Op(Instr::Store {
                        addr: Addr(100),
                        value: i,
                    }),
                    ScriptOp::Op(Instr::Compute(30)),
                ]
            })
            .collect(),
    );
    let t1 = script(
        (0..50)
            .flat_map(|_| {
                vec![
                    ScriptOp::Op(Instr::Load {
                        addr: Addr(100),
                        consume: false,
                    }),
                    ScriptOp::Op(Instr::Load {
                        addr: Addr(164),
                        consume: false,
                    }),
                    ScriptOp::Op(Instr::Compute(25)),
                ]
            })
            .collect(),
    );
    let mut m = Mini::new(BaselineModel::Scpp, vec![t0, t1]);
    assert!(m.run(2_000_000), "SC++ livelocked under conflicts");
    let squashes: u64 = m.nodes.iter().map(|n| n.stats().squashes).sum();
    assert!(
        squashes > 0,
        "expected at least one SC++ squash in this pattern"
    );
}

#[test]
fn l1_stats_accumulate() {
    let p = script(vec![
        // A consuming load stalls fetch until it retires, so the second
        // load issues after the fill and hits in the L1.
        ScriptOp::Record(Addr(100)),
        ScriptOp::Op(Instr::Load {
            addr: Addr(100),
            consume: false,
        }),
    ]);
    let mut m = Mini::new(BaselineModel::Rc, vec![p]);
    assert!(m.run(100_000));
    assert_eq!(m.nodes[0].miss_stats().l1_misses, 1, "second load hits");
    let s = m.nodes[0].stats();
    assert!(s.l1_hits >= 1);
    assert!(s.finished_at.is_some());
    assert_eq!(s.retired, 2);
}

#[test]
fn io_serializes_and_completes() {
    let p = script(vec![
        ScriptOp::Op(Instr::Store {
            addr: Addr(100),
            value: 1,
        }),
        ScriptOp::Op(Instr::Io),
        ScriptOp::Op(Instr::Store {
            addr: Addr(200),
            value: 2,
        }),
    ]);
    for model in [BaselineModel::Sc, BaselineModel::Tso, BaselineModel::Rc] {
        let mut m = Mini::new(model, vec![p.clone_box()]);
        assert!(m.run(200_000), "{model:?} io did not finish");
        assert_eq!(m.values.read(Addr(200)), 2);
    }
}
