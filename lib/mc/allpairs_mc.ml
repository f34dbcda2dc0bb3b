module Rng = Ssta_gauss.Rng
module Sta = Ssta_timing.Sta
module Tgraph = Ssta_timing.Tgraph
module Par = Ssta_par.Par
module Obs = Ssta_obs.Obs

(* Published once per chunk; totals are domain-count invariant because the
   chunk layout depends only on [iterations]. *)
let c_samples = Obs.counter "mc.allpairs.samples"

type result = {
  n_inputs : int;
  n_outputs : int;
  iterations : int;
  means : float array array;
  stds : float array array;
  reachable : bool array array;
  wall_seconds : float;
}

(* Per-chunk running statistics: Welford accumulators over the chunk's own
   iterations, plus the per-pair sample count (reachability is structural,
   so a reachable pair contributes on every iteration of the chunk). *)
type chunk_stats = {
  count : int;
  mean : float array array;
  m2 : float array array;
  reach : bool array array;
}

(* Chan's pairwise merge, applied strictly in chunk-index order: with a
   single chunk it degenerates to the chunk's own accumulators, which keeps
   single-chunk runs (<= Sampler.chunk_iterations iterations) bit-identical
   to the historical sequential engine. *)
let merge ~ni ~no a b =
  let count = a.count + b.count in
  let mean = Array.make_matrix ni no 0.0 in
  let m2 = Array.make_matrix ni no 0.0 in
  let reach = Array.make_matrix ni no false in
  for i = 0 to ni - 1 do
    for j = 0 to no - 1 do
      match (a.reach.(i).(j), b.reach.(i).(j)) with
      | false, false -> ()
      | true, false ->
          reach.(i).(j) <- true;
          mean.(i).(j) <- a.mean.(i).(j);
          m2.(i).(j) <- a.m2.(i).(j)
      | false, true ->
          reach.(i).(j) <- true;
          mean.(i).(j) <- b.mean.(i).(j);
          m2.(i).(j) <- b.m2.(i).(j)
      | true, true ->
          let na = float_of_int a.count and nb = float_of_int b.count in
          let n = na +. nb in
          let delta = b.mean.(i).(j) -. a.mean.(i).(j) in
          reach.(i).(j) <- true;
          mean.(i).(j) <- a.mean.(i).(j) +. (delta *. nb /. n);
          m2.(i).(j) <-
            a.m2.(i).(j) +. b.m2.(i).(j) +. (delta *. delta *. na *. nb /. n)
    done
  done;
  { count; mean; m2; reach }

let pair_moments r i j =
  if r.reachable.(i).(j) then Some (r.means.(i).(j), r.stds.(i).(j)) else None

let run ~iterations ~seed ctx =
  if iterations <= 0 then invalid_arg "Allpairs_mc.run: iterations must be > 0";
  let g = ctx.Sampler.graph in
  let inputs = g.Tgraph.inputs and outputs = g.Tgraph.outputs in
  let ni = Array.length inputs and no = Array.length outputs in
  let chunk = Sampler.chunk_iterations in
  let t0 = Unix.gettimeofday () in
  Obs.with_span "mc.allpairs" @@ fun () ->
  let chunks =
    Par.map_chunks ~chunk ~n:iterations (fun ~chunk:c ~lo ~hi ->
        Obs.with_span "mc.allpairs.chunk" @@ fun () ->
        let rng = Rng.stream ~seed ~index:c in
        let weights = Array.make (Tgraph.n_edges g) 0.0 in
        let arr = Array.make (Tgraph.n_vertices g) neg_infinity in
        let mean = Array.make_matrix ni no 0.0 in
        let m2 = Array.make_matrix ni no 0.0 in
        let reach = Array.make_matrix ni no false in
        for it = lo to hi - 1 do
          let sample = Sampler.draw ctx.Sampler.basis rng in
          Sampler.fill_weights ctx sample rng weights;
          let n = float_of_int (it - lo + 1) in
          for i = 0 to ni - 1 do
            Sta.forward_from_into g ~weights inputs.(i) arr;
            let mrow = mean.(i) and m2row = m2.(i) and rrow = reach.(i) in
            for j = 0 to no - 1 do
              let a = arr.(outputs.(j)) in
              if a > neg_infinity then begin
                rrow.(j) <- true;
                let delta = a -. mrow.(j) in
                mrow.(j) <- mrow.(j) +. (delta /. n);
                m2row.(j) <- m2row.(j) +. (delta *. (a -. mrow.(j)))
              end
            done
          done
        done;
        if Obs.enabled () then Obs.add c_samples (hi - lo);
        { count = hi - lo; mean; m2; reach })
  in
  let acc =
    match Array.length chunks with
    | 0 -> assert false (* iterations > 0 implies at least one chunk *)
    | _ ->
        let acc = ref chunks.(0) in
        for c = 1 to Array.length chunks - 1 do
          acc := merge ~ni ~no !acc chunks.(c)
        done;
        !acc
  in
  let stds =
    Array.mapi
      (fun i m2row ->
        Array.mapi
          (fun j v ->
            if acc.reach.(i).(j) && iterations > 1 then
              sqrt (v /. float_of_int (iterations - 1))
            else nan)
          m2row)
      acc.m2
  in
  let means =
    Array.mapi
      (fun i mrow ->
        Array.mapi (fun j v -> if acc.reach.(i).(j) then v else nan) mrow)
      acc.mean
  in
  {
    n_inputs = ni;
    n_outputs = no;
    iterations;
    means;
    stds;
    reachable = acc.reach;
    wall_seconds = Unix.gettimeofday () -. t0;
  }
