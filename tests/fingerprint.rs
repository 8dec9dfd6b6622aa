//! `Function::fingerprint` and the compile-service keys built with it:
//! stable across builds and processes, distinct across every `kernels`
//! Layer-II builder, and moved by every Table II command.
//!
//! Most `kernels` builders compile through the process-global service
//! instead of handing back their `Function`, so the corpus is checked
//! through that service's counters: a child process (this binary, one
//! ignored test) builds the corpus against a fresh `TIRAMISU_CACHE_DIR`,
//! where a key equal to an earlier one would be a hit instead of a
//! compile, and a second child on the same directory must compile
//! nothing.

use std::collections::HashSet;
use std::path::Path;
use std::process::Command;
use tiramisu::{At, Expr as E, Function, MemSpace, ServiceStats};

/// One `kernels` Layer-II builder: builds, schedules and compiles its
/// function(s) through the global service.
type Builder = Box<dyn Fn() -> Result<(), String>>;

fn ok<T, Err: std::fmt::Display>(r: Result<T, Err>) -> Result<(), String> {
    r.map(drop).map_err(|e| e.to_string())
}

/// Every `kernels` builder that schedules a Tiramisu `Function`, at small
/// sizes.
fn corpus() -> Vec<(String, Builder)> {
    use kernels::{algebra, dnn, image, image_dist, image_gpu, sgemm};
    let s = image::ImgSize { h: 64, w: 96 };
    let conv = dnn::ConvSize::small();
    let mut v: Vec<(String, Builder)> = vec![
        (
            "sgemm reference".into(),
            Box::new(|| ok(sgemm::reference(32))),
        ),
        (
            "sgemm alphaz_like".into(),
            Box::new(|| ok(sgemm::alphaz_like(32, 8))),
        ),
        (
            "sgemm pluto_like".into(),
            Box::new(|| ok(sgemm::pluto_like(32))),
        ),
        (
            "sgemm polly_like".into(),
            Box::new(|| ok(sgemm::polly_like(32))),
        ),
        (
            "sgemm gpu_tiled".into(),
            Box::new(|| ok(sgemm::gpu_tiled(32, 8))),
        ),
        (
            "sgemm gpu_naive".into(),
            Box::new(|| ok(sgemm::gpu_naive(32))),
        ),
        (
            "blur_shared_cache".into(),
            Box::new(|| ok(image_gpu::blur_shared_cache(32, true))),
        ),
        (
            "conv_tiramisu".into(),
            Box::new(move || ok(dnn::conv_tiramisu(conv))),
        ),
        (
            "conv_generic".into(),
            Box::new(move || ok(dnn::conv_generic(conv))),
        ),
        (
            "vgg fused".into(),
            Box::new(move || ok(dnn::vgg(conv, true, "vgg"))),
        ),
        (
            "vgg unfused".into(),
            Box::new(move || ok(dnn::vgg(conv, false, "vgg"))),
        ),
        (
            "hpcg spmv".into(),
            Box::new(|| ok(algebra::hpcg_spmv_tiramisu(16))),
        ),
        (
            "hpcg waxpby".into(),
            Box::new(|| ok(algebra::hpcg_waxpby_tiramisu(64, 2.0, 3.0))),
        ),
        (
            "hpcg dot".into(),
            Box::new(|| ok(algebra::hpcg_dot_tiramisu(64))),
        ),
        (
            "baryon vectorized".into(),
            Box::new(|| ok(algebra::baryon(16, true, "baryon"))),
        ),
        (
            "baryon scalar".into(),
            Box::new(|| ok(algebra::baryon(16, false, "baryon"))),
        ),
    ];
    for tile in [8, 16] {
        for packing in [true, false] {
            v.push((
                format!("sgemm tile={tile} packing={packing}"),
                Box::new(move || ok(sgemm::tiramisu_ablated(32, tile, packing, true))),
            ));
        }
    }
    for name in image::IMAGE_BENCHMARKS {
        v.push((
            format!("{name} cpu"),
            Box::new(move || ok(image::tiramisu_cpu(name, s))),
        ));
        v.push((
            format!("{name} pencil"),
            Box::new(move || ok(image::pencil_cpu(name, s))),
        ));
        for flavor in [image_gpu::GpuFlavor::Tiramisu, image_gpu::GpuFlavor::Pencil] {
            v.push((
                format!("{name} gpu {flavor:?}"),
                Box::new(move || ok(image_gpu::gpu_variant(name, s, flavor))),
            ));
        }
        v.push((
            format!("{name} dist"),
            Box::new(move || ok(image_dist::tiramisu_dist(name, s, 2))),
        ));
    }
    v
}

fn requests(s: ServiceStats) -> u64 {
    s.memory_hits + s.disk_hits + s.compiles + s.dedup_waits
}

/// The child half of [`every_builder_keeps_its_key_across_processes`]:
/// builds the corpus twice against the disk tier that process was given.
/// On an empty directory every first build must compile every request
/// (a hit would mean two builders share a key); on the directory a
/// previous child filled, nothing may compile. Prints the totals for the
/// parent.
#[test]
#[ignore = "child process of every_builder_keeps_its_key_across_processes"]
fn corpus_child() {
    let svc = tiramisu::service::global();
    let Some(dir) = svc.cache_dir() else { return };
    let cold = artifact_files(&dir) == 0;
    for (name, build) in corpus() {
        let s0 = svc.stats();
        build().unwrap_or_else(|e| panic!("{name}: {e}"));
        let s1 = svc.stats();
        let asked = requests(s1) - requests(s0);
        assert!(asked > 0, "{name} asked the service nothing");
        if cold {
            assert_eq!(
                s1.compiles - s0.compiles,
                asked,
                "{name}: a request hit the cache on first build, so its key equals \
                 the key of an earlier builder or request"
            );
        } else {
            assert_eq!(
                s1.compiles, s0.compiles,
                "{name}: compiled again in a new process"
            );
            assert_eq!(
                s1.disk_hits - s0.disk_hits,
                asked,
                "{name}: not served from disk"
            );
        }
        build().unwrap_or_else(|e| panic!("{name}: {e}"));
        let s2 = svc.stats();
        assert_eq!(
            s2.compiles, s1.compiles,
            "{name}: the rebuilt function compiled again"
        );
        assert_eq!(
            s2.memory_hits - s1.memory_hits,
            asked,
            "{name}: the rebuild missed memory"
        );
    }
    let st = svc.stats();
    println!(
        "corpus: compiles={} disk_hits={}",
        st.compiles, st.disk_hits
    );
}

fn artifact_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "tirart"))
                .count()
        })
        .unwrap_or(0)
}

/// Runs [`corpus_child`] in a fresh process on `dir`; returns its
/// `(compiles, disk_hits)`.
fn run_child(dir: &Path) -> (u64, u64) {
    let out = Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "corpus_child",
            "--exact",
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("TIRAMISU_CACHE_DIR", dir)
        .output()
        .expect("spawn the child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find_map(|l| l.split_once("corpus: ").map(|(_, totals)| totals))
        .unwrap_or_else(|| panic!("no totals in the child's output:\n{stdout}"));
    let field = |k: &str| -> u64 {
        line.split(' ')
            .find_map(|f| f.strip_prefix(k))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {k} in {line}"))
    };
    (field("compiles="), field("disk_hits="))
}

/// Every builder's keys are its own (pairwise distinct over the corpus),
/// a rebuild in the same process finds them again, and so does a fresh
/// process: one artifact file per cold compile, each found again.
#[test]
fn every_builder_keeps_its_key_across_processes() {
    let dir = std::env::temp_dir().join(format!("tiramisu-fingerprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (compiles, _) = run_child(&dir);
    assert!(compiles > 0);
    assert_eq!(
        artifact_files(&dir),
        compiles as usize,
        "one file per cold compile"
    );
    let (warm_compiles, warm_disk_hits) = run_child(&dir);
    assert_eq!((warm_compiles, warm_disk_hits), (0, compiles));
    assert_eq!(artifact_files(&dir), compiles as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The builders that hand back their `Function`: equal when built twice,
/// pairwise distinct.
#[test]
fn returned_functions_fingerprint_stably_and_distinctly() {
    use kernels::{image, sgemm};
    let builds: Vec<(String, fn() -> Function)> = vec![
        ("sgemm layer1".into(), || sgemm::layer1(1.0, 1.0).0),
        ("sgemm layer1 alpha=2".into(), || sgemm::layer1(2.0, 1.0).0),
        ("sgemm tile=8 packing".into(), || {
            sgemm::tiramisu_scheduled(8, true, true).unwrap().0
        }),
        ("sgemm tile=8".into(), || {
            sgemm::tiramisu_scheduled(8, false, true).unwrap().0
        }),
        ("sgemm tile=16 packing".into(), || {
            sgemm::tiramisu_scheduled(16, true, true).unwrap().0
        }),
        ("sgemm tile=16".into(), || {
            sgemm::tiramisu_scheduled(16, false, true).unwrap().0
        }),
        ("conv2D small".into(), || {
            image::conv2d_layer1(image::ImgSize::small()).0
        }),
    ];
    let mut seen = HashSet::new();
    for (name, build) in &builds {
        let fp = build().fingerprint();
        assert_eq!(fp, build().fingerprint(), "{name}: two builds differ");
        assert!(
            seen.insert(fp),
            "{name}: fingerprint equals an earlier function's"
        );
    }
}

/// `a(i, j) = in(i, j) * 0.0` and `b(i, j) = a(i, j) + a(i, j + 1)` over
/// `N × N`, plus one buffer.
fn base() -> (
    Function,
    tiramisu::CompId,
    tiramisu::CompId,
    tiramisu::BufId,
) {
    let mut f = Function::new("fp", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let input = f.input("in", &[i.clone(), j.clone()]).unwrap();
    let a = f
        .computation(
            "a",
            &[i.clone(), j.clone()],
            f.access(input, &[E::iter("i"), E::iter("j")]) * E::f32(0.0),
        )
        .unwrap();
    let read = f.access(a, &[E::iter("i"), E::iter("j")])
        + f.access(a, &[E::iter("i"), E::iter("j") + E::i64(1)]);
    let b = f.computation("b", &[i, j], read).unwrap();
    let buf = f.buffer("bbuf", &[E::param("N"), E::param("N")]);
    (f, a, b, buf)
}

type Edit = fn(&mut Function, tiramisu::CompId, tiramisu::CompId, tiramisu::BufId);

/// Each Table II command, a tag, the Layer III and IV edits, and an f32
/// constant's sign: every one moves the fingerprint off the base, and no
/// two land on the same value.
#[test]
fn every_command_changes_the_fingerprint() {
    let edits: Vec<(&str, Edit)> = vec![
        ("tile", |f, _, b, _| {
            f.tile(b, "i", "j", 4, 4, ("i0", "j0", "i1", "j1")).unwrap()
        }),
        ("split", |f, _, b, _| {
            f.split(b, "i", 4, "i0", "i1").unwrap()
        }),
        ("interchange", |f, _, b, _| {
            f.interchange(b, "i", "j").unwrap()
        }),
        ("shift", |f, _, b, _| f.shift(b, "i", 1).unwrap()),
        ("skew", |f, _, b, _| f.skew(b, "i", "j", 1).unwrap()),
        ("set_schedule", |f, _, b, _| {
            f.set_schedule(b, &["t0", "t1"], &["t0 = j", "t1 = i"])
                .unwrap()
        }),
        ("parallelize", |f, _, b, _| f.parallelize(b, "i").unwrap()),
        ("vectorize", |f, _, b, _| {
            f.vectorize(b, "j", 8).unwrap();
        }),
        ("vectorize 4", |f, _, b, _| {
            f.vectorize(b, "j", 4).unwrap();
        }),
        ("unroll", |f, _, b, _| {
            f.unroll(b, "j", 4).unwrap();
        }),
        ("distribute", |f, _, b, _| f.distribute(b, "i").unwrap()),
        ("gpu", |f, _, b, _| f.tile_gpu(b, "i", "j", 4, 4).unwrap()),
        ("gpu block tag", |f, _, b, _| {
            f.tag_level_gpu_block(b, "i", 0).unwrap()
        }),
        ("gpu thread tag", |f, _, b, _| {
            f.tag_level_gpu_thread(b, "i", 0).unwrap()
        }),
        ("after", |f, a, b, _| f.after(a, b, At::Root).unwrap()),
        ("fuse_after", |f, a, b, _| f.fuse_after(b, a, "j").unwrap()),
        ("compute_at", |f, a, b, _| {
            f.split(b, "i", 4, "i0", "i1").unwrap();
            f.compute_at(a, b, "i0").unwrap();
        }),
        ("cache_shared_at", |f, a, b, _| {
            f.tile_gpu(b, "i", "j", 4, 4).unwrap();
            f.cache_shared_at(a, b, "jB").unwrap();
        }),
        ("inline", |f, a, _, _| f.inline(a).unwrap()),
        ("store_in", |f, _, b, buf| {
            f.store_in(b, buf, &[E::iter("i"), E::iter("j")])
        }),
        ("store_in transposed", |f, _, b, buf| {
            f.store_in(b, buf, &[E::iter("j"), E::iter("i")])
        }),
        ("tag_buffer", |f, _, _, buf| {
            f.tag_buffer(buf, MemSpace::GpuShared)
        }),
        ("buffer extent", |f, _, _, buf| {
            f.set_buffer_size(buf, &[E::param("N"), E::param("N") + E::i64(1)])
        }),
        ("predicate", |f, _, b, _| {
            f.set_predicate(b, E::lt(E::iter("i"), E::iter("j")))
        }),
        ("send", |f, _, _, _| {
            let r = f.var("r", 0, 2);
            f.send(r, "b", E::i64(0), E::i64(4), E::iter("r") + E::i64(1), true);
        }),
        ("comm_before", |f, _, b, _| {
            let op = f.barrier();
            f.comm_before(op, b);
        }),
        ("-0.0", |f, a, _, _| {
            let e = f.comp(a).expr.clone().unwrap();
            f.comp_mut(a).expr = Some(match e {
                E::Bin(op, x, _) => E::Bin(op, x, Box::new(E::f32(-0.0))),
                other => panic!("unexpected body {other:?}"),
            });
        }),
    ];
    let base_fp = base().0.fingerprint();
    assert_eq!(base_fp, base().0.fingerprint());
    let mut seen = HashSet::from([base_fp]);
    for (name, edit) in edits {
        let (mut f, a, b, buf) = base();
        edit(&mut f, a, b, buf);
        assert!(
            seen.insert(f.fingerprint()),
            "{name} left the fingerprint on a seen value"
        );
    }
}

/// Tags live in a `HashMap`, whose iteration order is seeded per map:
/// the fingerprint must not see the order in which they were inserted.
#[test]
fn tag_insertion_order_does_not_matter() {
    let tagged = |order: &[usize]| {
        let (mut f, _, b, _) = base();
        f.tile(b, "i", "j", 4, 8, ("i0", "j0", "i1", "j1")).unwrap();
        for &k in order {
            match k {
                0 => f.parallelize(b, "i0").unwrap(),
                1 => f.distribute(b, "j0").unwrap(),
                2 => f.tag_level_gpu_block(b, "i1", 0).unwrap(),
                _ => f.tag_level_gpu_thread(b, "j1", 1).unwrap(),
            }
        }
        f.fingerprint()
    };
    let want = tagged(&[0, 1, 2, 3]);
    let mut order = [0, 1, 2, 3];
    // Every permutation, by Heap's algorithm.
    let mut c = [0usize; 4];
    let mut i = 1;
    while i < 4 {
        if c[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            assert_eq!(tagged(&order), want, "tag order {order:?}");
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

/// One function whose body uses every `BinOp` and `UnOp` variant, with
/// its fingerprint pinned: the operators hash by their enum
/// discriminants, so reordering or renumbering `loopvm`'s operator enums
/// moves this value, and with it every compile-cache key (each existing
/// cache directory then keeps its files as orphans).
#[test]
fn every_operator_hashes_to_a_pinned_key() {
    use tiramisu::{BinOp, UnOp};
    let mut f = Function::new("ops", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let input = f.input("in", std::slice::from_ref(&i)).unwrap();
    let x = f.access(input, &[E::iter("i")]);
    let k = E::iter("i");
    let bin = |op, a: E, b: E| E::Bin(op, Box::new(a), Box::new(b));
    let un = |op, a: E| E::Un(op, Box::new(a));
    let cond = E::or(
        E::and(E::lt(k.clone(), E::i64(3)), E::le(k.clone(), E::i64(4))),
        un(UnOp::Not, E::eq(k.clone(), E::i64(5))),
    );
    let int = bin(BinOp::Rem, bin(BinOp::Div, k.clone(), E::i64(2)), E::i64(3));
    let float = bin(
        BinOp::Max,
        bin(BinOp::Min, x.clone() + E::f32(1.0), x.clone() - E::f32(2.0)),
        x.clone() * un(UnOp::Exp, un(UnOp::Sqrt, un(UnOp::Abs, -x))),
    );
    let body = E::select(cond, float, E::cast_f32(int));
    f.computation("out", &[i], body).unwrap();
    assert_eq!(f.fingerprint(), PINNED_OPS_FINGERPRINT);
}

/// [`every_operator_hashes_to_a_pinned_key`]'s value.
const PINNED_OPS_FINGERPRINT: u64 = 10_239_466_636_566_458_863;
