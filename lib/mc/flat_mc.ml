module Rng = Ssta_gauss.Rng
module Sta = Ssta_timing.Sta
module Tgraph = Ssta_timing.Tgraph
module Par = Ssta_par.Par
module Obs = Ssta_obs.Obs

type result = { delays : float array; wall_seconds : float }

(* Sample totals are published per chunk (not per iteration), so the counter
   stays out of the sampling loop and the totals are domain-count invariant:
   chunk layout is a pure function of [iterations]. *)
let c_samples = Obs.counter "mc.flat.samples"

(* Chunked deterministic Monte Carlo: iterations are cut into fixed
   [Sampler.chunk_iterations]-sized chunks, chunk [c] draws from the
   reproducible substream [Rng.stream ~seed ~index:c] and writes only its
   own [delays] slice, so the result is the same for every domain count. *)
let run ~iterations ~seed ctx =
  if iterations <= 0 then invalid_arg "Flat_mc.run: iterations must be > 0";
  let g = ctx.Sampler.graph in
  let n_edges = Tgraph.n_edges g in
  let chunk = Sampler.chunk_iterations in
  let delays = Array.make iterations 0.0 in
  let t0 = Unix.gettimeofday () in
  Obs.with_span "mc.flat" @@ fun () ->
  Par.run_tasks
    ~n_tasks:(Par.n_chunks ~chunk iterations)
    ~init:(fun () -> Array.make n_edges 0.0)
    ~task:(fun weights c ->
      Obs.with_span "mc.flat.chunk" @@ fun () ->
      let lo, hi = Par.chunk_bounds ~chunk ~n:iterations c in
      let rng = Rng.stream ~seed ~index:c in
      for it = lo to hi - 1 do
        let sample = Sampler.draw ctx.Sampler.basis rng in
        Sampler.fill_weights ctx sample rng weights;
        delays.(it) <- Sta.design_delay g ~weights
      done;
      if Obs.enabled () then Obs.add c_samples (hi - lo))
    ();
  { delays; wall_seconds = Unix.gettimeofday () -. t0 }
