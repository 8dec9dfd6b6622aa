//! Exercises every scheduling command of the paper's Table II end-to-end:
//! each command is applied to a small program which is then compiled and
//! executed, and the result compared against the unscheduled semantics
//! (scheduling must never change results — only order and placement).

use tiramisu::{CpuOptions, Expr as E, Function};

const N: i64 = 24;

/// in(i, j) doubled — a simple elementwise target for loop-nest commands.
fn elementwise() -> (Function, tiramisu::CompId) {
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let input = f.input("in", &[i.clone(), j.clone()]).unwrap();
    let out = f
        .computation(
            "out",
            &[i, j],
            f.access(input, &[E::iter("i"), E::iter("j")]) * E::f32(2.0),
        )
        .unwrap();
    (f, out)
}

fn run(f: &Function) -> Vec<f32> {
    let module = tiramisu::compile_cpu(f, &[("N", N)], CpuOptions::default()).unwrap();
    let mut machine = module.machine();
    let in_buf = module.vm_buffer("in").unwrap();
    for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
        *v = k as f32;
    }
    machine.run(&module.program).unwrap();
    machine.buffer(module.vm_buffer("out").unwrap()).to_vec()
}

fn expected() -> Vec<f32> {
    (0..N * N).map(|k| 2.0 * k as f32).collect()
}

#[test]
fn tile_command() {
    let (mut f, c) = elementwise();
    f.tile(c, "i", "j", 5, 7, ("i0", "j0", "i1", "j1")).unwrap();
    assert_eq!(run(&f), expected());
}

#[test]
fn interchange_command() {
    let (mut f, c) = elementwise();
    f.interchange(c, "i", "j").unwrap();
    assert_eq!(run(&f), expected());
}

#[test]
fn shift_command() {
    let (mut f, c) = elementwise();
    f.shift(c, "i", 3).unwrap();
    assert_eq!(run(&f), expected());
}

#[test]
fn split_command() {
    let (mut f, c) = elementwise();
    f.split(c, "j", 5, "j0", "j1").unwrap(); // 24 % 5 != 0: partial chunk
    assert_eq!(run(&f), expected());
}

#[test]
fn skew_command() {
    let (mut f, c) = elementwise();
    f.skew(c, "i", "j", 2).unwrap();
    assert_eq!(run(&f), expected());
}

#[test]
fn unroll_command() {
    let (mut f, c) = elementwise();
    f.unroll(c, "j", 4).unwrap();
    assert_eq!(run(&f), expected());
}

#[test]
fn parallelize_and_vectorize_commands() {
    let (mut f, c) = elementwise();
    f.parallelize(c, "i").unwrap();
    f.vectorize(c, "j", 8).unwrap();
    assert_eq!(run(&f), expected());
}

#[test]
fn set_schedule_command() {
    // The low-level escape hatch: an explicit affine relation (here a
    // loop reversal of i, legal for an elementwise computation).
    let (mut f, c) = elementwise();
    f.set_schedule(c, &["ti", "tj"], &["ti = 0 - i", "tj = j"]).unwrap();
    assert_eq!(run(&f), expected());
}

#[test]
fn after_and_fuse_after_commands() {
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let input = f.input("in", std::slice::from_ref(&i)).unwrap();
    let a = f
        .computation("a", std::slice::from_ref(&i), f.access(input, &[E::iter("i")]) + E::f32(1.0))
        .unwrap();
    let b = f
        .computation(
            "b",
            std::slice::from_ref(&i),
            E::Access(a, vec![E::iter("i")]) * E::f32(3.0),
        )
        .unwrap();
    f.fuse_after(b, a, "i").unwrap();
    let module = tiramisu::compile_cpu(&f, &[("N", N)], CpuOptions::default()).unwrap();
    // Fused: exactly one for-loop at top level.
    let text = module.program.pretty();
    let loops = text.matches("for (").count();
    assert_eq!(loops, 1, "fuse_after must produce one loop:\n{text}");
    let mut machine = module.machine();
    let in_buf = module.vm_buffer("in").unwrap();
    for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
        *v = k as f32;
    }
    machine.run(&module.program).unwrap();
    let out = machine.buffer(module.vm_buffer("b").unwrap()).to_vec();
    for (k, v) in out.iter().enumerate().take(N as usize) {
        assert_eq!(*v, (k as f32 + 1.0) * 3.0);
    }
}

#[test]
fn compute_at_command_introduces_redundancy() {
    // Overlapped tiling: compute_at re-computes halo elements; the total
    // store count must exceed the domain size.
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let input = f.input("in", &[f.var("i", 0, E::param("N") + E::i64(2))]).unwrap();
    let a = f
        .computation(
            "a",
            std::slice::from_ref(&i),
            f.access(input, &[E::iter("i")]) + f.access(input, &[E::iter("i") + E::i64(1)]),
        )
        .unwrap();
    let b = f
        .computation(
            "b",
            std::slice::from_ref(&i),
            E::Access(a, vec![E::iter("i")]) * E::f32(2.0),
        )
        .unwrap();
    f.split(b, "i", 6, "i0", "i1").unwrap();
    f.compute_at(a, b, "i0").unwrap();
    let module = tiramisu::compile_cpu(&f, &[("N", N)], CpuOptions::default()).unwrap();
    let mut machine = module.machine();
    let in_buf = module.vm_buffer("in").unwrap();
    for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
        *v = k as f32;
    }
    let stats = machine.run_with_stats(&module.program).unwrap();
    // N stores for b, >= N for a (each tile computes its whole slice).
    assert!(stats.stores >= 2 * N as u64);
    let out = machine.buffer(module.vm_buffer("b").unwrap()).to_vec();
    for (k, v) in out.iter().enumerate().take(N as usize) {
        assert_eq!(*v, 2.0 * (k as f32 + (k + 1) as f32));
    }
}

#[test]
fn inline_command() {
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let input = f.input("in", std::slice::from_ref(&i)).unwrap();
    let a = f
        .computation("a", std::slice::from_ref(&i), f.access(input, &[E::iter("i")]) + E::f32(5.0))
        .unwrap();
    let b = f
        .computation("b", std::slice::from_ref(&i), E::Access(a, vec![E::iter("i")]) * E::f32(2.0))
        .unwrap();
    f.inline(a).unwrap();
    let module = tiramisu::compile_cpu(&f, &[("N", N)], CpuOptions::default()).unwrap();
    // a produces no buffer stores (it was inlined).
    assert!(module.vm_buffer("a").is_none());
    let mut machine = module.machine();
    let in_buf = module.vm_buffer("in").unwrap();
    for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
        *v = k as f32;
    }
    machine.run(&module.program).unwrap();
    let out = machine.buffer(module.vm_buffer("b").unwrap()).to_vec();
    for (k, v) in out.iter().enumerate().take(N as usize) {
        assert_eq!(*v, (k as f32 + 5.0) * 2.0);
    }
    let _ = b;
}

#[test]
fn store_in_command_layouts() {
    // SOA, transposed and modulo storage mappings (§IV-C3).
    for (name, idx, extents) in [
        (
            "transposed",
            vec![E::iter("j"), E::iter("i")],
            vec![E::param("N"), E::param("N")],
        ),
        (
            "modulo",
            vec![E::iter("i") % E::i64(2), E::iter("j")],
            vec![E::i64(2), E::param("N")],
        ),
    ] {
        let (mut f, c) = elementwise();
        let buf = f.buffer("outbuf", &extents);
        f.store_in(c, buf, &idx);
        let module =
            tiramisu::compile_cpu(&f, &[("N", N)], CpuOptions::default()).unwrap();
        let mut machine = module.machine();
        let in_buf = module.vm_buffer("in").unwrap();
        for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
            *v = k as f32;
        }
        machine.run(&module.program).unwrap();
        let out = machine.buffer(module.vm_buffer("outbuf").unwrap());
        match name {
            "transposed" => {
                // out[j][i] = 2 * in[i][j]
                assert_eq!(out[(3 * N + 5) as usize], 2.0 * (5 * N + 3) as f32);
            }
            "modulo" => {
                // Last writer for row parity 1 is i = N-1.
                assert_eq!(out[(N + 7) as usize], 2.0 * ((N - 1) * N + 7) as f32);
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn buffer_of_command() {
    // `C.buffer()`: none until `store_in` assigns one.
    let (mut f, c) = elementwise();
    assert_eq!(f.buffer_of(c), None);
    let buf = f.buffer("outbuf", &[E::param("N"), E::param("N")]);
    f.store_in(c, buf, &[E::iter("i"), E::iter("j")]);
    assert_eq!(f.buffer_of(c), Some(buf));
}

#[test]
fn set_buffer_size_command() {
    // `b.set_size(...)`: a buffer declared 1×1 is resized to hold the
    // whole result.
    let (mut f, c) = elementwise();
    let buf = f.buffer("outbuf", &[E::i64(1), E::i64(1)]);
    f.set_buffer_size(buf, &[E::param("N"), E::param("N")]);
    f.store_in(c, buf, &[E::iter("i"), E::iter("j")]);
    let module = tiramisu::compile_cpu(&f, &[("N", N)], CpuOptions::default()).unwrap();
    let mut machine = module.machine();
    let in_buf = module.vm_buffer("in").unwrap();
    for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
        *v = k as f32;
    }
    machine.run(&module.program).unwrap();
    assert_eq!(machine.buffer(module.vm_buffer("outbuf").unwrap()), &expected()[..]);
}

#[test]
fn host_to_device_and_device_to_host_commands() {
    // `C.host_to_device()` / `C.device_to_host()`: an intermediate the
    // automatic copy plan keeps on the device is copied both ways once
    // asked, once however often it is asked, and the copies are priced.
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let input = f.input("in", std::slice::from_ref(&i)).unwrap();
    let doubled = f.access(input, &[E::iter("i")]) * E::f32(2.0);
    let tmp = f.computation("tmp", std::slice::from_ref(&i), doubled).unwrap();
    let plus_one = f.access(tmp, &[E::iter("i")]) + E::f32(1.0);
    let out = f.computation("out", std::slice::from_ref(&i), plus_one).unwrap();
    f.after(out, tmp, tiramisu::At::Root).unwrap();
    for c in [tmp, out] {
        f.split(c, "i", 8, "i0", "i1").unwrap();
        f.tag_level_gpu_block(c, "i0", 0).unwrap();
        f.tag_level_gpu_thread(c, "i1", 0).unwrap();
    }
    let mut module =
        tiramisu::compile_gpu(&f, &[("N", 32)], tiramisu::GpuOptions::default()).unwrap();
    let names = |plan: &[(String, usize)]| plan.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!((names(&module.h2d), names(&module.d2h)), (vec!["in".into()], vec!["out".into()]));
    let model = gpusim::GpuModel::default();
    let copies =
        |m: &tiramisu::GpuModule| m.run(&mut m.alloc_buffers(), &model).unwrap().copy_cycles;
    let before = copies(&module);
    for _ in 0..2 {
        tiramisu::backend::gpu::host_to_device(&mut module, &f, tmp);
        tiramisu::backend::gpu::device_to_host(&mut module, &f, tmp);
    }
    assert_eq!(module.h2d, vec![("in".to_string(), 128), ("tmp".to_string(), 128)]);
    assert_eq!(module.d2h, vec![("out".to_string(), 128), ("tmp".to_string(), 128)]);
    assert!(copies(&module) > before);
}

#[test]
fn buffer_tagging_commands() {
    // tag_gpu_* commands flow through to kernel memory spaces.
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let k = f.var("k", 0, 4);
    let input = f.input("in", std::slice::from_ref(&i)).unwrap();
    let w = f.input("w", std::slice::from_ref(&k)).unwrap();
    let wbuf = f.buffer("wc", &[E::i64(4)]);
    f.tag_buffer(wbuf, tiramisu::MemSpace::GpuConstant);
    f.store_in(w, wbuf, &[E::iter("k")]);
    let out = f
        .computation(
            "out",
            std::slice::from_ref(&i),
            f.access(input, &[E::iter("i")]) * f.access(w, &[E::i64(0)]),
        )
        .unwrap();
    f.split(out, "i", 8, "i0", "i1").unwrap();
    f.tag_level_gpu_block(out, "i0", 0).unwrap();
    f.tag_level_gpu_thread(out, "i1", 0).unwrap();
    let module =
        tiramisu::compile_gpu(&f, &[("N", 32)], tiramisu::GpuOptions::default()).unwrap();
    let wc = module.buffer_index("wc").unwrap();
    assert_eq!(module.kernels[0].spaces[wc], gpusim::MemSpace::Constant);
}

#[test]
fn predicate_nonaffine_conditional() {
    // §V-B: a non-affine conditional attached as a predicate.
    let (mut f, c) = elementwise();
    // Only compute where (i*j) % 2 == 0.
    f.set_predicate(
        c,
        E::eq((E::iter("i") * E::iter("j")) % E::i64(2), E::i64(0)),
    );
    let module = tiramisu::compile_cpu(&f, &[("N", N)], CpuOptions::default()).unwrap();
    let mut machine = module.machine();
    let in_buf = module.vm_buffer("in").unwrap();
    for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
        *v = k as f32;
    }
    machine.run(&module.program).unwrap();
    let out = machine.buffer(module.vm_buffer("out").unwrap());
    assert_eq!(out[(N + 2) as usize], 2.0 * (N + 2) as f32); // even product
    assert_eq!(out[(N + 3) as usize], 0.0); // odd product: skipped
}

#[test]
fn distribute_send_receive_barrier_commands() {
    // The Layer IV command set on a minimal ring program.
    let mut f = Function::new("t", &["Nodes"]);
    let r = f.var("r", 0, E::param("Nodes"));
    let input = f.input("data", &[f.var("i", 0, E::i64(8))]).unwrap();
    let c = f
        .computation("c", std::slice::from_ref(&r), f.access(input, &[E::i64(0)]) + E::f32(1.0))
        .unwrap();
    f.distribute(c, "r").unwrap();
    let bar = f.barrier();
    f.comm_before(bar, c);
    let is = tiramisu::Var::new("is", E::i64(1), E::param("Nodes"));
    let s = f.send(is, "data", E::i64(0), E::i64(4), E::iter("is") - E::i64(1), false);
    f.comm_before(s, c);
    let ir = tiramisu::Var::new("ir", E::i64(0), E::param("Nodes") - E::i64(1));
    let rv = f.receive(ir, "data", E::i64(4), E::i64(4), E::iter("ir") + E::i64(1));
    f.comm_before(rv, c);
    let module =
        tiramisu::compile_dist(&f, &[("Nodes", 3)], tiramisu::DistOptions::default()).unwrap();
    let stats = module.run(3, &mpisim::CommModel::default(), false).unwrap();
    assert_eq!(stats.bytes_sent, vec![0, 16, 16]);
}
