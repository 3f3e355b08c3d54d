package main

import "math"

// spanIndex groups the layer replay's spans for the per-layer metrics.
type spanIndex struct {
	spans    []span
	measured func(op int) bool
}

// pick returns the spans named name in the measured requests, or, when a
// layer ran only while the server was set up (the plan of the one base
// build, say), in the setup requests; note says which.
func (ix spanIndex) pick(name string) ([]span, string) {
	var meas, all []span
	for _, s := range ix.spans {
		if s.Name != name {
			continue
		}
		all = append(all, s)
		if ix.measured(s.Op) {
			meas = append(meas, s)
		}
	}
	if len(meas) == 0 && len(all) > 0 {
		return all, "setup requests"
	}
	return meas, ""
}

func durations(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	return out
}

func attrs(ss []span, key string) []float64 {
	var out []float64
	for _, s := range ss {
		if v, ok := s.Attrs[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

func join(note, more string) string {
	switch {
	case note == "":
		return more
	case more == "":
		return note
	}
	return note + "; " + more
}

// layerInputs are the figures the per-layer metrics need from outside
// the layer replay.
type layerInputs struct {
	http, eng            phase
	storeHit, clusterHit float64
	reqBytes, respBytes  float64
	reqCount             int
}

func measuredLatencies(p phase, kind opKind) []float64 {
	var out []float64
	for i, st := range p.steps {
		if st.measured && st.kind == kind {
			out = append(out, p.obs[i].ms)
		}
	}
	return out
}

func layerMetrics(ix spanIndex, in layerInputs) *metricSet {
	m := &metricSet{}
	med := func(name string, xs []float64, note string) {
		m.add(name, "ms", median(xs), len(xs), note)
	}
	avg := func(name, unit string, xs []float64, note string) {
		m.add(name, unit, mean(xs), len(xs), note)
	}

	// cmd/trsparsed: what HTTP and JSON add over the engine call.
	for _, k := range []struct {
		name string
		kind opKind
	}{{"trsparsed.build_overhead_ms", opBuild}, {"trsparsed.update_overhead_ms", opPush}, {"trsparsed.solve_overhead_ms", opSolve}} {
		h, e := measuredLatencies(in.http, k.kind), measuredLatencies(in.eng, k.kind)
		m.add(k.name, "ms", median(h)-median(e), len(h), "HTTP p50 minus in-process engine p50, same requests")
	}
	m.add("trsparsed.req_bytes", "bytes", in.reqBytes, in.reqCount, "mean request body")
	m.add("trsparsed.resp_bytes", "bytes", in.respBytes, in.reqCount, "mean response body")

	// internal/engine.
	for _, k := range []struct {
		name string
		kind opKind
	}{{"engine.build_ms", opBuild}, {"engine.update_ms", opPush}, {"engine.solve_ms", opSolve}, {"engine.batch_ms", opBatch}} {
		med(k.name, measuredLatencies(in.eng, k.kind), "")
	}
	m.add("engine.store_hit_ratio", "ratio", in.storeHit, 0, "Engine.Stats over the whole replay")
	m.add("engine.cluster_hit_ratio", "ratio", in.clusterHit, 0, "ClusterStore over the whole replay")

	// internal/graph.
	ss, note := ix.pick("graph.new")
	med("graph.new_ms", durations(ss), note)
	ss, note = ix.pick("graph.apply_patch")
	med("graph.apply_patch_ms", durations(ss), note)

	// internal/shard.
	plans, planNote := ix.pick("shard.plan")
	med("shard.plan_ms", durations(plans), planNote)
	avg("shard.clusters", "count", attrs(plans, "clusters"), planNote)
	clusters, cnote := ix.pick("shard.cluster")
	med("shard.cluster_ms_p50", durations(clusters), cnote)
	maxOf := map[int]float64{}
	for _, c := range clusters {
		maxOf[c.Parent] = math.Max(maxOf[c.Parent], c.ms())
	}
	var maxes []float64
	for _, v := range maxOf {
		maxes = append(maxes, v)
	}
	med("shard.cluster_ms_max", maxes, join(cnote, "median over builds of the slowest cluster"))
	ss, note = ix.pick("shard.stitch")
	med("shard.stitch_ms", durations(ss), join(note, "last cluster end to shard.Run return"))
	updates, unote := ix.pick("core.update")
	med("shard.incremental_ms", attrs(updates, "incremental_reported_ms"), join(unote, "reported by the program: plan+build+stitch of SparsifyIncremental"))
	avg("shard.dirty_clusters", "count", attrs(updates, "dirty_clusters"), unote)

	// internal/sparsify: every Algorithm 2 run, per cluster or whole graph.
	algo := clusters
	anote := cnote
	if mono, mnote := ix.pick("sparsify.run"); len(mono) > 0 && (len(algo) == 0 || mnote == "") {
		algo, anote = mono, mnote
	}
	anote = join(anote, "reported by the program")
	med("sparsify.tree_ms", attrs(algo, "tree_reported_ms"), anote)
	med("sparsify.recover_ms", attrs(algo, "recover_reported_ms"), anote)
	med("sparsify.total_ms", attrs(algo, "total_reported_ms"), anote)
	avg("sparsify.edges_recovered", "count", attrs(algo, "edges_recovered"), anote)

	// internal/lap.
	ss, note = ix.pick("lap.assemble")
	med("lap.assemble_ms", durations(ss), note)
	med("lap.patch_ms", attrs(updates, "patch_reported_ms"), join(unote, "reported by the program"))

	// internal/precond and internal/chol.
	builds, bnote := ix.pick("precond.build")
	med("precond.build_ms", durations(builds), bnote)
	avg("precond.factors_reused", "count", attrs(updates, "factors_reused"), unote)
	solves, snote := ix.pick("solver.pcg")
	avg("precond.factor_nnz", "count", attrs(solves, "factor_nnz"), join(snote, "preconditioner the solves used"))
	avg("precond.mem_bytes", "bytes", append(attrs(builds, "mem_bytes"), attrs(updates, "mem_bytes")...), join(bnote, "cold builds and updates"))
	med("precond.apply_ms", attrs(solves, "apply_ms"), join(snote, "per single-RHS solve"))
	var applies, flops, vec, spmv []float64
	for _, s := range solves {
		a, it := s.Attrs["applies"], s.Attrs["iters"]
		applies = append(applies, a)
		flops = append(flops, 4*s.Attrs["factor_nnz"])
		if it > 0 {
			vec = append(vec, (s.ms()-s.Attrs["apply_ms"])/it)
		}
		// CSC SpMV per iteration: values and row indices of every
		// nonzero, the column pointers, x read and y written.
		spmv = append(spmv, s.Attrs["lg_nnz"]*12+(s.Attrs["n"]+1)*4+s.Attrs["n"]*16)
	}
	avg("precond.applies", "count", applies, join(snote, "per single-RHS solve"))
	avg("precond.apply_flops", "flop", flops, join(snote, "computed as 4 x factor nnz per apply"))

	// internal/solver.
	med("solver.pcg_ms", durations(solves), snote)
	m.add("solver.vector_ms_per_iter", "ms", median(vec), len(vec), join(snote, "(pcg - apply) / iterations"))
	avg("solver.iters", "count", attrs(solves, "iters"), join(snote, "per single-RHS solve"))
	avg("solver.spmv_bytes_per_iter", "bytes", spmv, join(snote, "computed from nnz(L_G)"))
	ss, note = ix.pick("solver.block")
	med("solver.block_ms", durations(ss), join(note, "PCGBlock at width 8"))

	// internal/core.
	refs, rnote := ix.pick("core.new_sparsifier")
	med("core.new_sparsifier_ms", durations(refs), join(rnote, "untraced reference"))
	med("core.update_ms", durations(updates), join(unote, "UpdateSparsifierPatch, the stream's rebuild"))
	med("core.update_assemble_ms", attrs(updates, "assemble_reported_ms"), join(unote, "reported by the program"))
	// What the decomposition costs over one NewSparsifier call: the
	// layer spans of a cold build minus the reference span of the same
	// build.
	var over []float64
	ref := map[int]float64{}
	for _, s := range refs {
		ref[s.Op] = s.ms()
	}
	parts := map[int]float64{}
	for _, name := range []string{"shard.plan", "shard.run", "sparsify.run", "lap.assemble", "precond.build"} {
		ps, _ := ix.pick(name)
		for _, s := range ps {
			parts[s.Op] += s.ms()
		}
	}
	for op, r := range ref {
		if p, ok := parts[op]; ok {
			over = append(over, p-r)
		}
	}
	med("core.trace_overhead_ms", over, join(rnote, "decomposed build minus core.NewSparsifier"))
	return m
}
