(* Property-based tests on randomly generated timing DAGs: reduction and
   criticality invariants that must hold for any graph, not just the
   benchmarks. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Tgraph = Ssta_timing.Tgraph
module Rng = Ssta_gauss.Rng

let dims = { Form.n_globals = 2; n_pcs = 4 }

(* A random connected-ish DAG: every non-root vertex has 1-3 fanins drawn
   from earlier vertices; roots are inputs, sinks are outputs. *)
let random_dag seed =
  let rng = Rng.create ~seed in
  let n = 4 + Rng.int rng 36 in
  let n_roots = 1 + Rng.int rng (max 1 (n / 4)) in
  let edges = ref [] in
  for v = n_roots to n - 1 do
    let fanins = 1 + Rng.int rng 3 in
    let seen = Hashtbl.create 4 in
    for _ = 1 to fanins do
      let s = Rng.int rng v in
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.replace seen s ();
        edges := (s, v) :: !edges
      end
    done
  done;
  let edges = Array.of_list (List.rev !edges) in
  let has_fanout = Array.make n false and has_fanin = Array.make n false in
  Array.iter
    (fun (s, d) ->
      has_fanout.(s) <- true;
      has_fanin.(d) <- true)
    edges;
  let inputs = ref [] and outputs = ref [] in
  for v = 0 to n - 1 do
    if not has_fanin.(v) then inputs := v :: !inputs;
    if not has_fanout.(v) then outputs := v :: !outputs
  done;
  let g =
    Tgraph.make ~n_vertices:n ~edges
      ~inputs:(Array.of_list (List.rev !inputs))
      ~outputs:(Array.of_list (List.rev !outputs))
  in
  let forms =
    Array.init (Tgraph.n_edges g) (fun _ ->
        let mean = 5.0 +. (20.0 *. Rng.uniform rng) in
        Form.make ~mean
          ~globals:(Array.init 2 (fun _ -> 0.04 *. mean *. Rng.uniform rng))
          ~pcs:(Array.init 4 (fun _ -> 0.04 *. mean *. Rng.uniform rng))
          ~rand:(0.02 *. mean))
  in
  (g, forms)

let io_delays g forms =
  Array.map
    (fun i ->
      let arr = Sweep_oracle.forward g ~forms ~sources:[| i |] in
      Array.map (fun o -> arr.(o)) g.Tgraph.outputs)
    g.Tgraph.inputs

let prop_reduction_preserves_io seed =
  let g, forms = random_dag seed in
  let fbuf = Sweep_oracle.pack_like forms in
  let crit = H.Criticality.compute ~delta:0.01 g ~forms:fbuf in
  let work = H.Reduce.of_graph g ~forms:fbuf ~keep:crit.H.Criticality.keep in
  H.Reduce.reduce work;
  let rg, rforms, _, _ = H.Reduce.freeze work in
  let rforms = Sweep_oracle.unpack rforms in
  if H.Reduce.n_live_edges work > Tgraph.n_edges g then false
  else begin
    let io = io_delays g forms in
    let rio = io_delays rg rforms in
    let ok = ref true in
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j f ->
            match (f, rio.(i).(j)) with
            | None, None -> ()
            | Some a, Some b ->
                (* delta = 0.01 removes only paths that win < 1% of the
                   time; the IO delay moments must survive. *)
                if
                  abs_float (a.Form.mean -. b.Form.mean)
                  > 0.05 *. a.Form.mean
                then ok := false
            | Some _, None | None, Some _ -> ok := false)
          row)
      io;
    !ok
  end

let prop_reduce_monotone seed =
  let g, forms = random_dag seed in
  let keep = Array.make (Tgraph.n_edges g) true in
  let work = H.Reduce.of_graph g ~forms:(Sweep_oracle.pack_like forms) ~keep in
  H.Reduce.reduce work;
  let e1 = H.Reduce.n_live_edges work and v1 = H.Reduce.n_live_vertices work in
  (* Idempotence: a second fixpoint run changes nothing. *)
  H.Reduce.reduce work;
  e1 = H.Reduce.n_live_edges work
  && v1 = H.Reduce.n_live_vertices work
  && e1 <= Tgraph.n_edges g
  && v1 <= Tgraph.n_vertices g

let prop_forward_backward_consistent seed =
  let g, forms = random_dag seed in
  let ok = ref true in
  Array.iter
    (fun i ->
      let arr = Sweep_oracle.forward g ~forms ~sources:[| i |] in
      Array.iter
        (fun o ->
          let req = Sweep_oracle.backward_to g ~forms o in
          match (arr.(o), req.(i)) with
          | None, None -> ()
          | Some a, Some b ->
              (* Both are moment-matched approximations of the same max;
                 operation order differs, so allow a small drift. *)
              if abs_float (a.Form.mean -. b.Form.mean) > 0.03 *. a.Form.mean
              then ok := false
          | Some _, None | None, Some _ -> ok := false)
        g.Tgraph.outputs)
    g.Tgraph.inputs;
  !ok

let prop_criticality_bounds seed =
  let g, forms = random_dag seed in
  let crit =
    H.Criticality.compute ~exact:true ~delta:0.05 g
      ~forms:(Sweep_oracle.pack_like forms)
  in
  Array.for_all (fun c -> c >= 0.0 && c <= 1.0) crit.H.Criticality.cm
  && Array.for_all Fun.id
       (Array.mapi
          (fun e k -> (not k) || crit.H.Criticality.cm.(e) >= 0.05)
          crit.H.Criticality.keep)

let prop_every_output_covered seed =
  (* After reduction with keep-all, every input-output pair reachable in
     the original graph stays reachable. *)
  let g, forms = random_dag seed in
  let keep = Array.make (Tgraph.n_edges g) true in
  let work = H.Reduce.of_graph g ~forms:(Sweep_oracle.pack_like forms) ~keep in
  H.Reduce.reduce work;
  let rg, _, _, _ = H.Reduce.freeze work in
  let ok = ref true in
  Array.iteri
    (fun ii i ->
      let reach = Tgraph.reachable_from g i in
      let rreach = Tgraph.reachable_from rg rg.Tgraph.inputs.(ii) in
      Array.iteri
        (fun jj o ->
          if reach.(o) <> rreach.(rg.Tgraph.outputs.(jj)) then ok := false)
        g.Tgraph.outputs)
    g.Tgraph.inputs;
  !ok

let test prop name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name QCheck.(int_range 0 100_000) prop)

let suites =
  [
    ( "property.random_dags",
      [
        test prop_reduction_preserves_io
          "criticality+reduction preserves IO delays";
        test prop_reduce_monotone "reduction shrinks and is idempotent";
        test prop_forward_backward_consistent
          "forward/backward passes agree on IO delays";
        test prop_criticality_bounds "criticality in [0,1], keep => >= delta";
        test prop_every_output_covered "reduction preserves reachability";
      ] );
  ]
