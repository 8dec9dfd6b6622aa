//! Edge-case coverage for the execution substrates: message reordering in
//! the cluster simulator, barrier phases in the GPU simulator, and the
//! CPU cost model's parallel/vector accounting.

use loopvm::{CostModel, Expr as V, LoopKind, Machine, Program, Stmt};

// ---------------------------------------------------------------------
// loopvm cost model
// ---------------------------------------------------------------------

fn sum_loop(kind: LoopKind, n: i64) -> loopvm::RunStats {
    let mut p = Program::new();
    let x = p.buffer("x", n as usize);
    let y = p.buffer("y", n as usize);
    let i = p.var("i");
    p.push(Stmt::for_(
        i,
        V::i64(0),
        V::i64(n),
        kind,
        vec![Stmt::store(
            y,
            V::var(i),
            V::load(x, V::var(i)) + V::f32(1.0),
        )],
    ));
    let mut m = Machine::new(&p);
    m.run_with_stats(&p).unwrap()
}

#[test]
fn parallel_loops_are_credited_modeled_cores() {
    let serial = sum_loop(LoopKind::Serial, 4096);
    let parallel = sum_loop(LoopKind::Parallel, 4096);
    // Same work...
    assert_eq!(serial.stores, parallel.stores);
    assert_eq!(serial.loads, parallel.loads);
    // ...but cycles divided by (roughly) the modeled core count.
    let cores = CostModel::default().cores as f64;
    let speedup = serial.cycles / parallel.cycles;
    assert!(
        speedup > cores * 0.5 && speedup <= cores * 1.5,
        "speedup {speedup:.1} vs modeled cores {cores}"
    );
}

#[test]
fn vectorized_loops_amortize_dispatch() {
    let serial = sum_loop(LoopKind::Serial, 4096);
    let vector = sum_loop(LoopKind::Vectorize(8), 4096);
    assert!(
        vector.cycles < serial.cycles / 2.0,
        "vector {:.0} vs serial {:.0}",
        vector.cycles,
        serial.cycles
    );
}

#[test]
fn strided_vector_access_pays_gather_penalty() {
    let build = |stride: i64| {
        let n = 512i64;
        let mut p = Program::new();
        let x = p.buffer("x", (n * stride) as usize);
        let y = p.buffer("y", n as usize);
        let i = p.var("i");
        p.push(Stmt::for_(
            i,
            V::i64(0),
            V::i64(n),
            LoopKind::Vectorize(8),
            vec![Stmt::store(
                y,
                V::var(i),
                V::load(x, V::var(i) * V::i64(stride)),
            )],
        ));
        let mut m = Machine::new(&p);
        m.run_with_stats(&p).unwrap()
    };
    let unit = build(1);
    let strided = build(16);
    assert!(
        strided.cycles > 1.5 * unit.cycles,
        "strided {:.0} vs contiguous {:.0}",
        strided.cycles,
        unit.cycles
    );
}

#[test]
fn cache_sim_sees_tiling_locality() {
    // Two passes over a 64 KiB buffer: streaming misses twice; tiled
    // revisits hit in L1.
    let n = 16 * 1024i64;
    let build = |tiled: bool| {
        let mut p = Program::new();
        let x = p.buffer("x", n as usize);
        let y = p.buffer("y", n as usize);
        let (t, r, i) = (p.var("t"), p.var("r"), p.var("i"));
        let body = |iv: V| {
            Stmt::store(y, iv.clone(), V::load(x, iv) + V::f32(1.0))
        };
        if tiled {
            // for t in 0..n/256 { for r in 0..2 { for i in 0..256 } }
            p.push(Stmt::serial(
                t,
                V::i64(0),
                V::i64(n / 256),
                vec![Stmt::serial(
                    r,
                    V::i64(0),
                    V::i64(2),
                    vec![Stmt::serial(
                        i,
                        V::i64(0),
                        V::i64(256),
                        vec![body(V::var(t) * V::i64(256) + V::var(i))],
                    )],
                )],
            ));
        } else {
            p.push(Stmt::serial(
                r,
                V::i64(0),
                V::i64(2),
                vec![Stmt::serial(i, V::i64(0), V::i64(n), vec![body(V::var(i))])],
            ));
        }
        let mut m = Machine::new(&p);
        m.run_with_stats(&p).unwrap()
    };
    let stream = build(false);
    let tiled = build(true);
    assert!(
        tiled.l1_misses < stream.l1_misses,
        "tiled {} vs streaming {} L1 misses",
        tiled.l1_misses,
        stream.l1_misses
    );
    // Total cycles may still favor the streaming version here (the tiled
    // variant pays extra index arithmetic for a small miss saving); the
    // cache-locality signal itself is what this test guards.
}

// ---------------------------------------------------------------------
// mpisim message matching
// ---------------------------------------------------------------------

#[test]
fn receives_match_by_source_despite_arrival_order() {
    // Rank 2 receives from rank 1 then rank 0; both senders race. The
    // inbox must match by source, stashing the other message.
    use mpisim::{CommModel, DistProgram, DistStmt};
    let mut p = Program::new();
    let b = p.buffer("b", 4);
    let rank = p.var("rank");
    let prog = DistProgram::new(
        p,
        rank,
        vec![],
        vec![vec![Stmt::store(b, V::i64(0), V::to_f32(V::var(rank) + V::i64(10)))]],
        vec![
            DistStmt::Compute(0),
            // Ranks 0 and 1 send their marker to rank 2.
            DistStmt::If {
                cond: V::lt(V::var(rank), V::i64(2)),
                body: vec![DistStmt::Send {
                    dest: V::i64(2),
                    buf: b,
                    offset: V::i64(0),
                    count: V::i64(1),
                    asynchronous: true,
                }],
            },
            // Rank 2 receives from 1 first, then 0.
            DistStmt::If {
                cond: V::eq(V::var(rank), V::i64(2)),
                body: vec![
                    DistStmt::Recv { src: V::i64(1), buf: b, offset: V::i64(1), count: V::i64(1) },
                    DistStmt::Recv { src: V::i64(0), buf: b, offset: V::i64(2), count: V::i64(1) },
                ],
            },
        ],
    );
    for _ in 0..16 {
        // Repeat to exercise both arrival orders.
        let stats = mpisim::run(&prog, 3, &CommModel::default(), false).unwrap();
        assert_eq!(stats.messages[0], 1);
        assert_eq!(stats.messages[1], 1);
    }
}

// ---------------------------------------------------------------------
// gpusim barrier phases
// ---------------------------------------------------------------------

#[test]
fn barrier_phases_order_cross_warp_communication() {
    // Phase 1: thread t writes sh[t]. Phase 2: thread t reads sh[63 - t]
    // — across warps, so without the barrier warp 0 would read zeros.
    use gpusim::{GpuModel, Kernel, MemSpace};
    let mut p = Program::new();
    let sh = p.buffer("sh", 64);
    let out = p.buffer("out", 64);
    let t = p.var("t");
    let write = Stmt::store(sh, V::var(t), V::to_f32(V::var(t)) + V::f32(1.0));
    let read = Stmt::store(
        out,
        V::var(t),
        V::load(sh, V::i64(63) - V::var(t)),
    );
    // Two phases: a barrier between the two stores.
    let mut k = Kernel::phased(p, vec![vec![write], vec![read]], [1, 1], [64, 1]);
    k.thread_vars[0] = Some(t);
    k.spaces[0] = MemSpace::Shared;
    let mut bufs = vec![vec![0f32; 64], vec![0f32; 64]];
    gpusim::launch(&k, &mut bufs, &GpuModel::default()).unwrap();
    for (i, v) in bufs[1].iter().enumerate() {
        assert_eq!(*v, (63 - i) as f32 + 1.0, "thread {i}");
    }
}

#[test]
fn without_barrier_cross_warp_reads_race() {
    // The same kernel WITHOUT the barrier: warp 0 reads elements warp 1
    // has not written yet (still zero) — demonstrating that the barrier
    // in the previous test is load-bearing.
    use gpusim::{GpuModel, Kernel, MemSpace};
    let mut p = Program::new();
    let sh = p.buffer("sh", 64);
    let out = p.buffer("out", 64);
    let t = p.var("t");
    p.push(Stmt::store(sh, V::var(t), V::to_f32(V::var(t)) + V::f32(1.0)));
    p.push(Stmt::store(
        out,
        V::var(t),
        V::load(sh, V::i64(63) - V::var(t)),
    ));
    let mut k = Kernel::new(p, [1, 1], [64, 1]);
    k.thread_vars[0] = Some(t);
    k.spaces[0] = MemSpace::Shared;
    let mut bufs = vec![vec![0f32; 64], vec![0f32; 64]];
    gpusim::launch(&k, &mut bufs, &GpuModel::default()).unwrap();
    // Warp 0 (threads 0..32) reads sh[63..31], written by warp 1 which has
    // not run yet: zeros.
    assert_eq!(bufs[1][0], 0.0);
    // Warp 1 reads warp 0's writes: fine.
    assert_eq!(bufs[1][63], 1.0);
}

// ---------------------------------------------------------------------
// polyhedral map edges
// ---------------------------------------------------------------------

#[test]
fn map_wrap_unwrap_roundtrip() {
    use polyhedral::{BasicMap, BasicSet, MapSpace, Space};
    let a = Space::set("A", &["i"], &["N"]);
    let b = Space::set("B", &["x", "y"], &["N"]);
    let ms = MapSpace::new(a, b);
    let m = BasicMap::from_constraint_strs(&ms, &["x = i + 1", "y = 2i", "i >= 0"]).unwrap();
    let w = m.wrap();
    let back = BasicMap::unwrap_from(ms.clone(), &w);
    assert_eq!(back.constraints(), m.constraints());
    let dom = BasicSet::from_constraint_strs(ms.in_space(), &["i = 3"]).unwrap();
    let (img, _) = back.apply(&dom).unwrap();
    assert!(img.contains(&[4, 6], &[0]));
}

#[test]
fn lex_relations_compose_with_domain_restriction() {
    use polyhedral::{Map, Set, Space};
    let s = Space::set("S", &["i"], &[]);
    let lt = Map::lex_lt(&s);
    let dom = Set::from_constraint_strs(&s, &["i >= 0", "i <= 3"]).unwrap();
    let restricted = lt.intersect_domain(&dom).unwrap();
    let (img, _) = restricted.apply(&dom).unwrap();
    // successors of 0..=3 include 1..; intersect manually:
    assert!(img.contains(&[4], &[]));
    assert!(img.contains(&[1], &[]));
    let wrapped = restricted.wrap();
    assert!(wrapped.contains(&[0, 5], &[]));
    assert!(!wrapped.contains(&[5, 0], &[]));
}
