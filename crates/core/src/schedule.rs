//! The scheduling language (Table II of the paper).
//!
//! Commands for loop-nest transformations (`tile`, `split`, `interchange`,
//! `shift`, `skew`, `set_schedule`), for mapping loop levels to hardware
//! (`parallelize`, `vectorize`, `unroll`, `distribute`, `tile_gpu`,
//! `gpu`), and for ordering and locality (`after`, `fuse_after`,
//! `compute_at`, `inline`). Data-manipulation commands live on
//! [`Function`] directly (`store_in`, `buffer`, `tag_buffer`); the
//! communication commands are in [`crate::layer4`].
//!
//! Each command transforms the Layer II state of one computation: the
//! schedule relation over its dynamic dimensions, the static `beta`
//! ordering vector, and the hardware tags. Transformations are affine maps
//! composed onto the schedule, so arbitrary compositions remain affine
//! (§V: "Composing transformations is done by composing different maps").

use crate::expr::{CompId, Expr};
use crate::function::{Error, Function, Result, Tag};
use polyhedral::{Aff, BasicMap, Constraint, Map, MapSpace, Space};

/// Where to order a computation in [`Function::after`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum At {
    /// Order at the outermost (root) level: separate top-level loop nests.
    Root,
    /// Order at the named loop level of the reference computation: shared
    /// loops strictly outside that level, ordered loops at it.
    Level(String),
}

impl Function {
    // -----------------------------------------------------------------
    // Loop-nest transformations
    // -----------------------------------------------------------------

    /// `C.tile(i, j, t1, t2, i0, j0, i1, j1)`: tiles two adjacent loop
    /// levels by `t1 × t2`.
    ///
    /// ```
    /// use tiramisu::{Function, Expr as E};
    /// let mut f = Function::new("t", &["N"]);
    /// let i = f.var("i", 0, E::param("N"));
    /// let j = f.var("j", 0, E::param("N"));
    /// let c = f.computation("C", &[i, j], E::f32(0.0)).unwrap();
    /// f.tile(c, "i", "j", 32, 32, ("i0", "j0", "i1", "j1")).unwrap();
    /// assert_eq!(f.comp(c).dyn_names, ["i0", "j0", "i1", "j1"]);
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names; [`Error::Command`] when `j`
    /// is not immediately inside `i` or a tile size is < 1.
    #[allow(clippy::too_many_arguments)]
    pub fn tile(
        &mut self,
        comp: CompId,
        i: &str,
        j: &str,
        t1: i64,
        t2: i64,
        new_names: (&str, &str, &str, &str),
    ) -> Result<()> {
        if t1 < 1 || t2 < 1 {
            return Err(Error::Command(format!("tile sizes must be >= 1, got {t1}x{t2}")));
        }
        let li = self.level(comp, i)?;
        let lj = self.level(comp, j)?;
        if lj != li + 1 {
            return Err(Error::Command(format!(
                "tile requires {j} immediately inside {i} (found levels {li} and {lj})"
            )));
        }
        let (i0, j0, i1, j1) = new_names;
        let c = &self.comps[comp.index()];
        let mut names = c.dyn_names.clone();
        names.splice(
            li..=lj,
            [i0, j0, i1, j1].iter().map(|s| s.to_string()),
        );
        // Map: (.., ti, tj, ..) -> (.., ti0, tj0, ti1, tj1, ..)
        // with ti = t1*ti0 + ti1, 0 <= ti1 < t1 (same for j).
        let trans = strip_mine_map(&c.dyn_names, &names, &[(li, t1), (lj, t2)], c.param_names());
        let mut betas = c.betas.clone();
        // Two extra dynamic dims: insert two zero betas after position li+1.
        betas.splice(li + 1..li + 1, [0, 0]);
        self.apply_dyn(comp, names, trans, betas)
    }

    /// `C.split(i, s, i0, i1)`: splits loop level `i` by factor `s`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] / [`Error::Command`] as for `tile`.
    pub fn split(&mut self, comp: CompId, i: &str, s: i64, i0: &str, i1: &str) -> Result<()> {
        if s < 1 {
            return Err(Error::Command(format!("split factor must be >= 1, got {s}")));
        }
        let li = self.level(comp, i)?;
        let c = &self.comps[comp.index()];
        let mut names = c.dyn_names.clone();
        names.splice(li..=li, [i0, i1].iter().map(|s| s.to_string()));
        let trans = strip_mine_map(&c.dyn_names, &names, &[(li, s)], c.param_names());
        let mut betas = c.betas.clone();
        betas.insert(li + 1, 0);
        self.apply_dyn(comp, names, trans, betas)
    }

    /// `C.interchange(i, j)`: swaps two loop levels.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names.
    pub fn interchange(&mut self, comp: CompId, i: &str, j: &str) -> Result<()> {
        let li = self.level(comp, i)?;
        let lj = self.level(comp, j)?;
        let c = &self.comps[comp.index()];
        let mut names = c.dyn_names.clone();
        names.swap(li, lj);
        let perm: Vec<usize> = (0..c.dyn_names.len())
            .map(|k| if k == li { lj } else if k == lj { li } else { k })
            .collect();
        let trans = permutation_map(&c.dyn_names, &names, &perm, c.param_names());
        let betas = c.betas.clone();
        self.apply_dyn(comp, names, trans, betas)
    }

    /// `C.shift(i, s)`: shifts loop level `i` by `s` iterations.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names.
    pub fn shift(&mut self, comp: CompId, i: &str, s: i64) -> Result<()> {
        let li = self.level(comp, i)?;
        let c = &self.comps[comp.index()];
        let names = c.dyn_names.clone();
        let trans = affine_dim_map(&c.dyn_names, c.param_names(), |k, cols| {
            let mut a = Aff::var(cols, k);
            if k == li {
                a = a.add(&Aff::constant(cols, s));
            }
            a
        });
        let betas = c.betas.clone();
        self.apply_dyn(comp, names, trans, betas)
    }

    /// `C.skew(i, j, f)`: skews level `j` by `f` times level `i`
    /// (`t_j' = t_j + f * t_i`) — an affine transformation interval-based
    /// frameworks like Halide cannot express (§II).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names.
    pub fn skew(&mut self, comp: CompId, i: &str, j: &str, f: i64) -> Result<()> {
        let li = self.level(comp, i)?;
        let lj = self.level(comp, j)?;
        let c = &self.comps[comp.index()];
        let names = c.dyn_names.clone();
        let trans = affine_dim_map(&c.dyn_names, c.param_names(), |k, cols| {
            let a = Aff::var(cols, k);
            if k == lj {
                a.add(&Aff::var(cols, li).scale(f))
            } else {
                a
            }
        });
        let betas = c.betas.clone();
        self.apply_dyn(comp, names, trans, betas)
    }

    /// `C.set_schedule(...)`: the low-level escape hatch — replaces the
    /// dynamic schedule with an explicit affine relation given as
    /// constraint strings over `in_names ∪ out_names ∪ params` (the Layer
    /// I → II map of Table II, in ISL-like syntax).
    ///
    /// # Errors
    ///
    /// Parse errors from the polyhedral layer.
    pub fn set_schedule(
        &mut self,
        comp: CompId,
        out_names: &[&str],
        constraints: &[&str],
    ) -> Result<()> {
        let c = &self.comps[comp.index()];
        let param_refs: Vec<&str> = self.params.iter().map(|s| s.as_str()).collect();
        let out_space = Space::set("time", out_names, &param_refs);
        let ms = MapSpace::new(c.domain.space().clone(), out_space);
        let sched = BasicMap::from_constraint_strs(&ms, constraints)?;
        let c = &mut self.comps[comp.index()];
        c.dyn_names = out_names.iter().map(|s| s.to_string()).collect();
        c.sched = sched;
        c.betas = vec![0; out_names.len() + 1];
        Ok(())
    }

    // -----------------------------------------------------------------
    // Hardware mapping
    // -----------------------------------------------------------------

    /// `C.parallelize(i)`: runs level `i` across CPU cores (`cpu` tag).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names.
    pub fn parallelize(&mut self, comp: CompId, i: &str) -> Result<()> {
        self.tag(comp, i, Tag::Parallel)
    }

    /// `C.vectorize(i, v)`: splits level `i` by `v` and maps the inner
    /// loop to vector lanes. The outer loop keeps the name `i`; the inner
    /// becomes `{i}v`. Returns the inner level name.
    ///
    /// ```
    /// use tiramisu::{Function, Expr as E, Tag};
    /// let mut f = Function::new("t", &["N"]);
    /// let i = f.var("i", 0, E::param("N"));
    /// let c = f.computation("C", &[i], E::f32(0.0)).unwrap();
    /// let inner = f.vectorize(c, "i", 8).unwrap();
    /// assert_eq!(f.comp(c).tags.get(&inner), Some(&Tag::Vectorize(8)));
    /// ```
    ///
    /// # Errors
    ///
    /// As for `split`.
    pub fn vectorize(&mut self, comp: CompId, i: &str, v: usize) -> Result<String> {
        let inner = format!("{i}v");
        self.split(comp, i, v as i64, i, &inner)?;
        self.tag(comp, &inner, Tag::Vectorize(v))?;
        Ok(inner)
    }

    /// `C.unroll(i, v)`: splits level `i` by `v` and unrolls the inner
    /// loop (named `{i}u`). Returns the inner level name.
    ///
    /// # Errors
    ///
    /// As for `split`.
    pub fn unroll(&mut self, comp: CompId, i: &str, v: usize) -> Result<String> {
        let inner = format!("{i}u");
        self.split(comp, i, v as i64, i, &inner)?;
        self.tag(comp, &inner, Tag::Unroll(v))?;
        Ok(inner)
    }

    /// `C.distribute(i)`: spreads level `i` across distributed-memory
    /// ranks (`node` tag).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names.
    pub fn distribute(&mut self, comp: CompId, i: &str) -> Result<()> {
        self.tag(comp, i, Tag::Distribute)
    }

    /// `C.gpu(i0, i1, i2, i3)`: maps `(i0, i1)` to GPU block dimensions
    /// and `(i2, i3)` to thread dimensions.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names.
    pub fn gpu(&mut self, comp: CompId, i0: &str, i1: &str, i2: &str, i3: &str) -> Result<()> {
        self.tag(comp, i0, Tag::GpuBlock(0))?;
        self.tag(comp, i1, Tag::GpuBlock(1))?;
        self.tag(comp, i2, Tag::GpuThread(0))?;
        self.tag(comp, i3, Tag::GpuThread(1))
    }

    /// `C.tile_gpu(i, j, t1, t2)`: tiles and maps the resulting loops to
    /// GPU blocks/threads. New level names are `{i}B`, `{j}B`, `{i}T`,
    /// `{j}T`.
    ///
    /// # Errors
    ///
    /// As for `tile`.
    pub fn tile_gpu(&mut self, comp: CompId, i: &str, j: &str, t1: i64, t2: i64) -> Result<()> {
        let (ib, jb, it, jt) =
            (format!("{i}B"), format!("{j}B"), format!("{i}T"), format!("{j}T"));
        self.tile(comp, i, j, t1, t2, (&ib, &jb, &it, &jt))?;
        self.gpu(comp, &ib, &jb, &it, &jt)
    }

    /// Tags a single level as a GPU block dimension (for 1-D kernels or
    /// hand-built geometries; `gpu()`/`tile_gpu()` cover the 2-D case).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names.
    pub fn tag_level_gpu_block(&mut self, comp: CompId, level: &str, dim: u8) -> Result<()> {
        self.tag(comp, level, Tag::GpuBlock(dim))
    }

    /// Tags a single level as a GPU thread dimension.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] for bad names.
    pub fn tag_level_gpu_thread(&mut self, comp: CompId, level: &str, dim: u8) -> Result<()> {
        self.tag(comp, level, Tag::GpuThread(dim))
    }

    fn tag(&mut self, comp: CompId, level: &str, tag: Tag) -> Result<()> {
        self.level(comp, level)?;
        self.comps[comp.index()].tags.insert(level.to_string(), tag);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Ordering and locality
    // -----------------------------------------------------------------

    /// `C.after(B, at)`: orders C after B. With [`At::Level`]`(i)` the two
    /// computations share all loops strictly outside level `i` (of B) and
    /// C's `i` loop is placed after B's; with [`At::Root`] C's whole nest
    /// follows B's.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] when `at` names a level B doesn't have.
    pub fn after(&mut self, comp: CompId, b: CompId, at: At) -> Result<()> {
        let l = match &at {
            At::Root => 0,
            At::Level(name) => self.level(b, name)? + 1,
        };
        let b_betas = self.comps[b.index()].betas.clone();
        let c = &mut self.comps[comp.index()];
        let m = l.min(c.betas.len()).min(b_betas.len());
        c.betas[..m].copy_from_slice(&b_betas[..m]);
        if l < c.betas.len() && l < b_betas.len() {
            c.betas[l] = b_betas[l] + 1;
        }
        Ok(())
    }

    /// `C.fuse_after(B, i)`: C executes in the *same* loops as B up to and
    /// including level `i`, ordered after B inside the `i` loop body (the
    /// loop-fusion form of `after`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLevel`] when B has no level `i`.
    pub fn fuse_after(&mut self, comp: CompId, b: CompId, i: &str) -> Result<()> {
        let l = self.level(b, i)?;
        let b_betas = self.comps[b.index()].betas.clone();
        let c = &mut self.comps[comp.index()];
        let m = (l + 1).min(c.betas.len()).min(b_betas.len());
        c.betas[..m].copy_from_slice(&b_betas[..m]);
        if l + 1 < c.betas.len() {
            c.betas[l + 1] = b_betas.get(l + 1).copied().unwrap_or(0) + 1;
        }
        Ok(())
    }

    /// `P.compute_at(C, i)`: computes (a possibly redundant region of) P
    /// inside C's loop nest at level `i` — overlapped tiling (§III-C).
    /// The region of P needed by one iteration of C's `i` loop is derived
    /// automatically from C's read accesses to P.
    ///
    /// ```
    /// use tiramisu::{Function, Expr as E};
    /// let mut f = Function::new("t", &["N"]);
    /// let i = f.var("i", 0, E::param("N"));
    /// let p = f.computation("P", &[i.clone()], E::f32(1.0)).unwrap();
    /// let read = f.access(p, &[E::iter("i")])
    ///     + f.access(p, &[E::iter("i") + E::i64(1)]);
    /// let c = f.computation("C", &[i], read).unwrap();
    /// f.split(c, "i", 8, "i0", "i1").unwrap();
    /// f.compute_at(p, c, "i0").unwrap();
    /// assert!(f.comp(p).redundant); // overlapped tiling recomputes halos
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::Command`] when C does not read P or accesses are too
    /// irregular to bound.
    pub fn compute_at(&mut self, p: CompId, c: CompId, level: &str) -> Result<()> {
        let l = self.level(c, level)?;
        let (needed_hull, n_keep) = self.needed_region(p, c, level)?;
        let host = &self.comps[c.index()];
        let target = &self.comps[p.index()];
        let prefix_names: Vec<String> = host.dyn_names[..=l].to_vec();
        let param_refs: Vec<&str> = self.params.iter().map(|s| s.as_str()).collect();

        // 3. New schedule for P: out dims = prefix + P's current dyn dims.
        let mut new_names = prefix_names.clone();
        new_names.extend(target.sched.space().out_space().dims().iter().cloned());
        let new_refs: Vec<&str> = new_names.iter().map(|s| s.as_str()).collect();
        let new_out = Space::set("time", &new_refs, &param_refs);
        let new_ms = MapSpace::new(target.domain.space().clone(), new_out);
        let n_p = target.domain.space().n_dims();
        let n_pref = n_keep;
        let n_own = target.sched.space().n_out();
        let total = new_ms.n_cols();
        let mut cons: Vec<Constraint> = Vec::new();
        // Existing schedule constraints: [p-dom, own-dyn, params, 1] ->
        // insert prefix columns between p-dom and own-dyn.
        for con in target.sched.constraints() {
            cons.push(Constraint { aff: con.aff.insert_cols(n_p, n_pref), kind: con.kind });
        }
        // Needed-region constraints: needed_hull is O -> P-domain over
        // [o, p-dom, params, 1]; reorder to [p-dom, o, ...] columns.
        for con in needed_hull.constraints() {
            let mut coeffs = vec![0i64; total];
            for k in 0..n_pref {
                coeffs[n_p + k] = con.aff.coeff(k);
            }
            for (k, c) in coeffs.iter_mut().enumerate().take(n_p) {
                *c = con.aff.coeff(n_pref + k);
            }
            let n_params = self.params.len();
            for q in 0..n_params {
                coeffs[n_p + n_pref + n_own + q] = con.aff.coeff(n_pref + n_p + q);
            }
            coeffs[total - 1] = con.aff.const_term();
            cons.push(Constraint { aff: Aff::from_coeffs(coeffs), kind: con.kind });
        }
        let new_sched = BasicMap::from_constraints(new_ms, cons);

        // 4. Betas: share the host's prefix, execute before the host's
        // body at the attachment level.
        let host_betas = self.comps[c.index()].betas.clone();
        let own_betas = self.comps[p.index()].betas.clone();
        let mut betas = host_betas[..=l].to_vec();
        betas.push(host_betas.get(l + 1).copied().unwrap_or(0) - 1);
        betas.extend_from_slice(&own_betas[1..]);

        let t = &mut self.comps[p.index()];
        t.dyn_names = new_names;
        t.sched = new_sched;
        t.betas = betas;
        t.redundant = true;
        Ok(())
    }

    /// Computes the region of `p` needed per iteration of `c`'s loops at
    /// `level` (the hull over `[prefix dims, p dims, params]`). Shared by
    /// `compute_at` and the `cache_*_at` commands — this is the automatic
    /// footprint computation the paper highlights ("the amount of data to
    /// copy ... computed automatically").
    fn needed_region(
        &self,
        p: CompId,
        c: CompId,
        level: &str,
    ) -> Result<(polyhedral::BasicSet, usize)> {
        let l = self.level(c, level)?;
        let host = &self.comps[c.index()];
        let target = &self.comps[p.index()];
        let n_keep = l + 1;
        let n_drop = host.dyn_names.len() - n_keep;
        let wrapped = host.sched.wrap();
        let n_in = host.sched.space().n_in();
        let (proj, _exact) = wrapped.project_out(n_in + n_keep, n_drop);
        let prefix_names: Vec<String> = host.dyn_names[..n_keep].to_vec();
        let prefix_refs: Vec<&str> = prefix_names.iter().map(|s| s.as_str()).collect();
        let param_refs: Vec<&str> = self.params.iter().map(|s| s.as_str()).collect();
        let prefix_space = Space::set("o", &prefix_refs, &param_refs);
        let prefix_ms = MapSpace::new(host.domain.space().clone(), prefix_space.clone());
        let prefix_rel =
            BasicMap::unwrap_from(prefix_ms, &proj).intersect_domain(&host.domain)?;

        let host_expr = host
            .expr
            .as_ref()
            .ok_or_else(|| Error::Command("host has no expression".into()))?;
        let reads = host_expr.accesses();
        let p_space = target.domain.space().clone();
        let mut needed: Option<Map> = None;
        for (id, idx) in reads {
            if id != p {
                continue;
            }
            let read_map = access_map(host, idx, &p_space, &self.params)?;
            let (comp_rel, _exact) = prefix_rel.reverse().apply_range(&read_map)?;
            let m = Map::from_basic(comp_rel);
            needed = Some(match needed {
                None => m,
                Some(acc) => acc.union(&m)?,
            });
        }
        let needed = needed.ok_or_else(|| {
            Error::Command(format!("{} does not read {}", host.name, target.name))
        })?;
        Ok((simple_hull(&needed)?, n_keep))
    }

    /// `C.cache_shared_at(P, i)` (Table II, novel): caches the region of
    /// `P` that `C` needs per iteration of its loop `i` in **shared
    /// memory**. The region size is computed automatically from `C`'s
    /// accesses; a cooperative copy computation is created, placed at the
    /// attachment level (with block-level synchronization inserted by the
    /// GPU backend between the copy and the consumer), and `C`'s reads are
    /// redirected. Returns the copy computation.
    ///
    /// # Errors
    ///
    /// [`Error::Command`] when the needed region has no constant bound
    /// (tile the consumer first).
    pub fn cache_shared_at(&mut self, p: CompId, c: CompId, level: &str) -> Result<CompId> {
        self.cache_at(p, c, level, crate::function::MemSpace::GpuShared)
    }

    /// `C.cache_local_at(P, i)`: as [`Function::cache_shared_at`] but the
    /// cache lives in per-thread local memory.
    ///
    /// # Errors
    ///
    /// As for `cache_shared_at`.
    pub fn cache_local_at(&mut self, p: CompId, c: CompId, level: &str) -> Result<CompId> {
        self.cache_at(p, c, level, crate::function::MemSpace::GpuLocal)
    }

    fn cache_at(
        &mut self,
        p: CompId,
        c: CompId,
        level: &str,
        space: crate::function::MemSpace,
    ) -> Result<CompId> {
        use crate::function::Tag;
        let (hull, n_pref) = self.needed_region(p, c, level)?;
        let target = &self.comps[p.index()];
        let n_p = target.domain.space().n_dims();

        // Width per producer dimension: max over (o, p, p') pairs sharing
        // the prefix of |p_k - p'_k| + 1. Constant (parameter-free) widths
        // are required — shared arrays have static size.
        let base = hull.constraints();
        let total = n_pref + 2 * n_p + self.params.len() + 1;
        let mut doubled: Vec<polyhedral::Constraint> = Vec::new();
        for con in base {
            // [o, p, params, 1] -> insert p' after p.
            doubled.push(polyhedral::Constraint {
                aff: con.aff.insert_cols(n_pref + n_p, n_p),
                kind: con.kind,
            });
            // and the copy constraining p' instead of p: insert p before.
            doubled.push(polyhedral::Constraint {
                aff: con.aff.insert_cols(n_pref, n_p),
                kind: con.kind,
            });
        }
        let mut widths = Vec::with_capacity(n_p);
        for k in 0..n_p {
            let obj = Aff::var(total, n_pref + k).sub(&Aff::var(total, n_pref + n_p + k));
            let w = polyhedral::solve::int_max(&doubled, total - 1, &obj).ok_or_else(|| {
                Error::Command(format!(
                    "cache region of {} has no constant size in dimension {k};                      tile the consumer first",
                    self.comps[p.index()].name
                ))
            })?;
            widths.push(w + 1);
        }

        // The copy computation: cache(p...) = producer(p...) over the
        // producer's domain, restricted per prefix by compute_at.
        let target = &self.comps[p.index()];
        let iters = target.iters.clone();
        let cache_name = format!("{}_cache", target.name);
        let domain = target.domain.clone().with_name(&cache_name);
        let expr = Expr::Access(
            p,
            iters.iter().map(|n| Expr::Iter(n.clone())).collect(),
        );
        let (dyn_names, sched, mut betas) =
            crate::function::Computation::identity_schedule(&domain);
        betas[0] = self
            .comps
            .iter()
            .filter(|x| x.kind == crate::function::CompKind::Computation)
            .map(|x| x.betas[0] + 1)
            .max()
            .unwrap_or(0);
        self.comps.push(crate::function::Computation {
            name: cache_name.clone(),
            kind: crate::function::CompKind::Computation,
            iters: iters.clone(),
            domain,
            expr: Some(expr),
            predicate: None,
            dyn_names,
            sched,
            betas,
            tags: std::collections::HashMap::new(),
            inlined: false,
            redundant: false,
            store_buffer: None,
            store_idx: None,
        });
        let cache = CompId::from_raw((self.comps.len() - 1) as u32);

        // Modulo storage into the sized cache buffer: injective over any
        // interval of length `width`, so no per-prefix base offset is
        // needed.
        let buf = self.buffer(
            &format!("{cache_name}_buf"),
            &widths.iter().map(|&w| Expr::i64(w)).collect::<Vec<_>>(),
        );
        self.tag_buffer(buf, space);
        let idx: Vec<Expr> = iters
            .iter()
            .zip(&widths)
            .map(|(n, &w)| Expr::Iter(n.clone()) % Expr::i64(w))
            .collect();
        self.store_in(cache, buf, &idx);

        // Redirect the consumer's reads of the producer to the cache
        // (before compute_at, which derives the copy's needed region from
        // those reads).
        let host_expr = self.comps[c.index()].expr.clone().unwrap();
        let rewritten = host_expr.map_accesses(&|id, idx| {
            (id == p).then(|| Expr::Access(cache, idx.to_vec()))
        });
        self.comps[c.index()].expr = Some(rewritten);

        // Place the copy at the attachment level (cooperative, before the
        // consumer's body).
        self.compute_at(cache, c, level)?;

        // If the consumer runs on GPU threads, map the copy's innermost
        // dims to the same thread axes (cooperative load).
        let host_thread_dims = self.comps[c.index()]
            .tags
            .values()
            .filter(|t| matches!(t, Tag::GpuThread(_)))
            .count();
        if host_thread_dims > 0 {
            let own = self.comps[cache.index()].dyn_names.clone();
            let n_axes = host_thread_dims.min(n_p).min(2);
            let start = own.len() - n_p;
            // Outermost copy dims map to the thread axes (the same
            // row/column shape as the consumer's threads).
            for a in 0..n_axes {
                let dim = own[start + a].clone();
                self.tag(cache, &dim, Tag::GpuThread(a as u8))?;
            }
        }

        Ok(cache)
    }

    /// `C.inline()`: substitutes C's expression into all of its consumers
    /// and removes C from code generation.
    ///
    /// # Errors
    ///
    /// [`Error::Command`] when C has no expression (is an input).
    pub fn inline(&mut self, comp: CompId) -> Result<()> {
        let c = &self.comps[comp.index()];
        let body = c
            .expr
            .clone()
            .ok_or_else(|| Error::Command("cannot inline an input".into()))?;
        let iters = c.iters.clone();
        for q in 0..self.comps.len() {
            if q == comp.index() {
                continue;
            }
            if let Some(e) = self.comps[q].expr.clone() {
                let new = e.map_accesses(&|id, idx| {
                    if id != comp {
                        return None;
                    }
                    Some(body.substitute_iters(&|name| {
                        iters.iter().position(|i| i == name).map(|k| idx[k].clone())
                    }))
                });
                self.comps[q].expr = Some(new);
            }
        }
        self.comps[comp.index()].inlined = true;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    fn level(&self, comp: CompId, name: &str) -> Result<usize> {
        self.comps[comp.index()]
            .level_of(name)
            .ok_or_else(|| Error::UnknownLevel(format!("{} has no level {name}", self.comps[comp.index()].name)))
    }

    /// Applies a transformation map on the dynamic schedule space.
    fn apply_dyn(
        &mut self,
        comp: CompId,
        new_names: Vec<String>,
        trans: BasicMap,
        new_betas: Vec<i64>,
    ) -> Result<()> {
        let c = &mut self.comps[comp.index()];
        let (new_sched, _exact) = c.sched.apply_range(&trans)?;
        debug_assert_eq!(new_betas.len(), new_names.len() + 1);
        c.dyn_names = new_names;
        c.sched = new_sched;
        c.betas = new_betas;
        Ok(())
    }
}

impl crate::function::Computation {
    pub(crate) fn param_names(&self) -> Vec<&str> {
        self.domain.space().params().iter().map(|s| s.as_str()).collect()
    }
}

/// Builds the strip-mining transformation on a dynamic space: each listed
/// `(level, size)` is replaced by `(outer, inner)` with
/// `t = size*outer + inner`, `0 <= inner < size`; other dims pass through.
fn strip_mine_map(
    old_names: &[String],
    new_names: &[String],
    splits: &[(usize, i64)],
    params: Vec<&str>,
) -> BasicMap {
    let old_refs: Vec<&str> = old_names.iter().map(|s| s.as_str()).collect();
    let new_refs: Vec<&str> = new_names.iter().map(|s| s.as_str()).collect();
    let in_space = Space::set("t", &old_refs, &params);
    let out_space = Space::set("t'", &new_refs, &params);
    let ms = MapSpace::new(in_space, out_space);
    let n = ms.n_cols();
    let mut cons = Vec::new();
    // For each old level: its outer new dim and, when split, its inner
    // new dim and factor. A run of consecutive split levels lays out its
    // outer dims first, then its inner dims, in level order: `[i0, i1]`
    // for a split, `[i0, j0, i1, j1]` for a tile (`new_names` follows).
    type Assignment = (usize, usize, Option<(usize, i64)>);
    let mut assignments: Vec<Assignment> = Vec::new();
    {
        let mut new_i = 0usize;
        let mut k = 0usize;
        while k < old_names.len() {
            let run_len = {
                let mut r = 0;
                while splits.iter().any(|(l, _)| *l == k + r) {
                    r += 1;
                }
                r
            };
            if run_len == 0 {
                assignments.push((k, new_i, None));
                new_i += 1;
                k += 1;
            } else {
                // Outer dims first, then inner dims, in level order.
                for r in 0..run_len {
                    let size = splits.iter().find(|(l, _)| *l == k + r).unwrap().1;
                    assignments.push((k + r, new_i + r, Some((new_i + run_len + r, size))));
                }
                new_i += 2 * run_len;
                k += run_len;
            }
        }
        debug_assert_eq!(new_i, new_names.len());
    }
    let n_old = old_names.len();
    for (old_k, outer_new, split) in assignments {
        match split {
            None => {
                // t_old = t_new
                let aff = Aff::var(n, n_old + outer_new).sub(&Aff::var(n, old_k));
                cons.push(Constraint::eq(aff));
            }
            Some((inner_new, size)) => {
                // t_old = size * outer + inner
                let aff = Aff::var(n, old_k)
                    .sub(&Aff::var(n, n_old + outer_new).scale(size))
                    .sub(&Aff::var(n, n_old + inner_new));
                cons.push(Constraint::eq(aff));
                // 0 <= inner < size
                cons.push(Constraint::ineq(Aff::var(n, n_old + inner_new)));
                cons.push(Constraint::ineq(
                    Aff::var(n, n_old + inner_new)
                        .scale(-1)
                        .add(&Aff::constant(n, size - 1)),
                ));
            }
        }
    }
    BasicMap::from_constraints(ms, cons)
}

/// Builds a permutation map on a dynamic space: `out[k] = in[perm[k]]`.
fn permutation_map(
    old_names: &[String],
    new_names: &[String],
    perm: &[usize],
    params: Vec<&str>,
) -> BasicMap {
    let old_refs: Vec<&str> = old_names.iter().map(|s| s.as_str()).collect();
    let new_refs: Vec<&str> = new_names.iter().map(|s| s.as_str()).collect();
    let in_space = Space::set("t", &old_refs, &params);
    let out_space = Space::set("t'", &new_refs, &params);
    let n = in_space.n_cols();
    let affs: Vec<Aff> = perm.iter().map(|&p| Aff::var(n, p)).collect();
    BasicMap::from_output_affs(&in_space, &out_space, &affs)
}

/// Builds a same-arity affine map on a dynamic space from a per-dimension
/// expression builder.
fn affine_dim_map(
    names: &[String],
    params: Vec<&str>,
    build: impl Fn(usize, usize) -> Aff,
) -> BasicMap {
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let in_space = Space::set("t", &refs, &params);
    let out_space = Space::set("t'", &refs, &params);
    let n = in_space.n_cols();
    let affs: Vec<Aff> = (0..names.len()).map(|k| build(k, n)).collect();
    BasicMap::from_output_affs(&in_space, &out_space, &affs)
}

/// Builds the access relation of `host` reading a producer: host-domain →
/// producer-domain. Affine index expressions become equalities; non-affine
/// ones leave the corresponding producer dimension unconstrained (the
/// paper's over-approximation for non-affine accesses, §V-B), bounded by
/// the producer's domain at use sites.
pub(crate) fn access_map(
    host: &crate::function::Computation,
    idx: &[Expr],
    producer_space: &Space,
    params: &[String],
) -> Result<BasicMap> {
    let ms = MapSpace::new(host.domain.space().clone(), producer_space.clone());
    let n = ms.n_cols();
    let n_in = ms.n_in();
    let n_out = ms.n_out();
    let mut cons = Vec::new();
    for (k, e) in idx.iter().enumerate() {
        if let Some(aff) = e.as_affine(&host.iters, params) {
            // out_k = aff(in, params)
            let mut row = vec![0i64; n];
            for (d, r) in row.iter_mut().enumerate().take(n_in) {
                *r = -aff.coeff(d);
            }
            for q in 0..params.len() {
                row[n_in + n_out + q] = -aff.coeff(n_in + q);
            }
            row[n - 1] = -aff.const_term();
            row[n_in + k] = 1;
            cons.push(Constraint::eq(Aff::from_coeffs(row)));
        }
        // Non-affine: leave dimension k unconstrained (over-approximation).
    }
    Ok(BasicMap::from_constraints(ms, cons))
}

/// Computes the *simple hull* of a union of basic maps: the set of
/// constraints of each basic map that are valid for the entire union. The
/// result is a convex over-approximation (exact when the union is convex).
pub(crate) fn simple_hull(m: &Map) -> Result<polyhedral::BasicSet> {
    let wrapped = m.wrap();
    let basics = wrapped.basics();
    let first = basics
        .first()
        .ok_or_else(|| Error::Command("empty needed-region in compute_at".into()))?;
    let space = first.space().clone();
    // Candidate halfspaces: every inequality, plus both directions of
    // every equality (an equality rarely holds across the whole union, but
    // each of its sides may).
    let mut candidates: Vec<Aff> = Vec::new();
    for b in basics {
        for con in b.constraints() {
            match con.kind {
                polyhedral::ConstraintKind::Ineq => candidates.push(con.aff.clone()),
                polyhedral::ConstraintKind::Eq => {
                    candidates.push(con.aff.clone());
                    candidates.push(con.aff.scale(-1));
                }
            }
        }
    }
    let mut keep: Vec<Constraint> = Vec::new();
    'cand: for aff in candidates {
        // A halfspace is valid for the union when no basic set contains a
        // point violating it (aff <= -1).
        for other in basics {
            let neg = aff.scale(-1).add(&Aff::constant(aff.n_cols(), -1));
            if !other.with_constraint(Constraint::ineq(neg)).is_empty() {
                continue 'cand;
            }
        }
        keep.push(Constraint::ineq(aff));
    }
    Ok(polyhedral::BasicSet::from_constraints(space, keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn simple_fn() -> (Function, CompId) {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let j = f.var("j", 0, Expr::param("N"));
        let c = f
            .computation("S", &[i, j], Expr::f32(1.0))
            .unwrap();
        (f, c)
    }

    #[test]
    fn tile_replaces_levels() {
        let (mut f, c) = simple_fn();
        f.tile(c, "i", "j", 32, 32, ("i0", "j0", "i1", "j1")).unwrap();
        assert_eq!(f.comp(c).dyn_names, vec!["i0", "j0", "i1", "j1"]);
        assert_eq!(f.comp(c).betas.len(), 5);
        // The schedule maps (i, j) = (40, 70) to (1, 2, 8, 6).
        let dom = polyhedral::BasicSet::from_constraint_strs(
            f.comp(c).domain.space(),
            &["i = 40", "j = 70"],
        )
        .unwrap();
        let (img, _) = f.comp(c).sched.apply(&dom).unwrap();
        assert!(img.contains(&[1, 2, 8, 6], &[100]));
    }

    #[test]
    fn split_and_interchange() {
        let (mut f, c) = simple_fn();
        f.split(c, "i", 4, "i0", "i1").unwrap();
        assert_eq!(f.comp(c).dyn_names, vec!["i0", "i1", "j"]);
        f.interchange(c, "i1", "j").unwrap();
        assert_eq!(f.comp(c).dyn_names, vec!["i0", "j", "i1"]);
        // (i, j) = (6, 9) -> i0 = 1, i1 = 2 -> out (1, 9, 2).
        let dom = polyhedral::BasicSet::from_constraint_strs(
            f.comp(c).domain.space(),
            &["i = 6", "j = 9"],
        )
        .unwrap();
        let (img, _) = f.comp(c).sched.apply(&dom).unwrap();
        assert!(img.contains(&[1, 9, 2], &[100]));
    }

    #[test]
    fn shift_and_skew() {
        let (mut f, c) = simple_fn();
        f.shift(c, "i", 5).unwrap();
        f.skew(c, "i", "j", 2).unwrap();
        // (i, j) = (1, 1): shift -> (6, 1); skew -> (6, 1 + 2*6) = (6, 13).
        let dom = polyhedral::BasicSet::from_constraint_strs(
            f.comp(c).domain.space(),
            &["i = 1", "j = 1"],
        )
        .unwrap();
        let (img, _) = f.comp(c).sched.apply(&dom).unwrap();
        assert!(img.contains(&[6, 13], &[100]));
    }

    #[test]
    fn vectorize_splits_and_tags() {
        let (mut f, c) = simple_fn();
        let inner = f.vectorize(c, "j", 8).unwrap();
        assert_eq!(inner, "jv");
        assert_eq!(f.comp(c).dyn_names, vec!["i", "j", "jv"]);
        assert_eq!(f.comp(c).tags.get("jv"), Some(&Tag::Vectorize(8)));
    }

    #[test]
    fn after_orders_statements() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let a = f.computation("A", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let b = f.computation("B", std::slice::from_ref(&i), Expr::f32(2.0)).unwrap();
        // Fresh comps already ordered: beta0 0 and 1. Fuse them at level i:
        f.fuse_after(b, a, "i").unwrap();
        assert_eq!(f.comp(b).betas[0], f.comp(a).betas[0]);
        assert_eq!(f.comp(b).betas[1], f.comp(a).betas[1] + 1);
        // And un-fuse via after-at-root:
        f.after(b, a, At::Root).unwrap();
        assert_eq!(f.comp(b).betas[0], f.comp(a).betas[0] + 1);
    }

    #[test]
    fn unknown_level_errors() {
        let (mut f, c) = simple_fn();
        assert!(matches!(f.parallelize(c, "zz"), Err(Error::UnknownLevel(_))));
        assert!(matches!(
            f.tile(c, "i", "zz", 4, 4, ("a", "b", "x", "y")),
            Err(Error::UnknownLevel(_))
        ));
    }

    #[test]
    fn tile_requires_adjacent_levels() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let j = f.var("j", 0, Expr::param("N"));
        let k = f.var("k", 0, Expr::param("N"));
        let c = f.computation("S", &[i, j, k], Expr::f32(0.0)).unwrap();
        assert!(matches!(
            f.tile(c, "i", "k", 4, 4, ("a", "b", "x", "y")),
            Err(Error::Command(_))
        ));
    }

    #[test]
    fn inline_substitutes() {
        let mut f = Function::new("t", &[]);
        let i = f.var("i", 0, 10);
        let a = f.computation("A", std::slice::from_ref(&i), Expr::cast_f32(Expr::iter("i"))).unwrap();
        let acc = f.access(a, &[Expr::iter("i") + Expr::i64(1)]);
        let b = f.computation("B", std::slice::from_ref(&i), acc * Expr::f32(2.0)).unwrap();
        f.inline(a).unwrap();
        assert!(f.comp(a).inlined);
        // B's expr no longer accesses A.
        assert!(f.comp(b).expr.as_ref().unwrap().accesses().is_empty());
    }

    #[test]
    fn compute_at_builds_prefix_schedule() {
        // by(i) reads bx(i) and bx(i+1); bx.compute_at(by, i) should give
        // bx a schedule with the host prefix dim and a needed-region
        // linking constraint.
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let bx = f.computation("bx", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let read = f.access(bx, &[Expr::iter("i")])
            + f.access(bx, &[Expr::iter("i") + Expr::i64(1)]);
        let by = f.computation("by", std::slice::from_ref(&i), read).unwrap();
        f.compute_at(bx, by, "i").unwrap();
        let c = f.comp(bx);
        assert_eq!(c.dyn_names.len(), 2); // host prefix + own dim
        // The scheduled pairs: for host iteration o, bx instances o..o+1.
        let dom = c.domain.clone();
        let rel = c.sched.intersect_domain(&dom).unwrap();
        // Pick o = 3 (fix out dim 0 = 3): p must be within [3, 4].
        let wrapped = rel.wrap();
        let pinned = wrapped.with_constraint(Constraint::eq(
            Aff::var(wrapped.space().n_cols(), 1).add(&Aff::constant(wrapped.space().n_cols(), -3)),
        ));
        // Columns: [p_i(in), o(out0), own(out1), N, 1].
        assert!(pinned.contains(&[3, 3, 3], &[100]));
        assert!(pinned.contains(&[4, 3, 4], &[100]));
        assert!(!pinned.contains(&[5, 3, 5], &[100]));
        assert!(!pinned.contains(&[2, 3, 2], &[100]));
    }
}
