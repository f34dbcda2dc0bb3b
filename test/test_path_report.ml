(* Tests for the memoized path index (lib/core/path_report): the index
   against the pre-index engine, kept here verbatim as the oracle (one
   maximum-likelihood re-trace and one re-summed, string-deduplicated
   path per branch), on random DAGs and on every output of four ISCAS
   circuits, through a fresh index and through one index reset and
   reused across queries and arrival states; and the tracer's fanin probe, Form_buf.tightness of an
   add_into sum, against the oracle's boxed tightness of the sum. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Build = Ssta_timing.Build
module Rng = Ssta_gauss.Rng

type path = H.Path_report.path = {
  vertices : int list;
  edges : int list;
  delay : Form.t;
  criticality : float;
}

module Oracle = struct
  let fanin_edges g v =
    let lo = g.Tgraph.fanin_lo.(v) and hi = g.Tgraph.fanin_hi.(v) in
    let rec collect i acc = if i >= hi then List.rev acc else collect (i + 1) (i :: acc) in
    collect lo []

  (* Maximum-likelihood prefix: walk backward following, at each vertex, the
     fanin arc whose [arrival(src) + delay] is tightest against the vertex's
     own arrival. *)
  let ml_prefix g ~forms ~arrival v0 =
    let rec walk v vertices edges =
      match fanin_edges g v with
      | [] -> Some (v :: vertices, edges)
      | fanin ->
          let best = ref None in
          List.iter
            (fun e ->
              match arrival.(g.Tgraph.src.(e)) with
              | None -> ()
              | Some a_src -> (
                  match arrival.(v) with
                  | None -> ()
                  | Some a_v ->
                      let tp =
                        Sweep_oracle.(tightness (add a_src forms.(e)) a_v)
                      in
                      (match !best with
                      | Some (_, tp') when tp' >= tp -> ()
                      | _ -> best := Some (e, tp))))
            fanin;
          (match !best with
          | None -> None (* no reachable fanin: v itself must be a source *)
          | Some (e, _) -> walk g.Tgraph.src.(e) (v :: vertices) (e :: edges))
    in
    match arrival.(v0) with None -> None | Some _ -> walk v0 [] []

  let path_of g ~forms ~arrival ~endpoint vertices edges =
    ignore g;
    let delay =
      match edges with
      | [] ->
          (match forms with
          | [||] -> Form.constant { Form.n_globals = 0; n_pcs = 0 } 0.0
          | _ -> Form.constant (Form.dims forms.(0)) 0.0)
      | e :: rest ->
          List.fold_left
            (fun acc e' -> Sweep_oracle.add acc forms.(e'))
            forms.(e) rest
    in
    let criticality =
      match arrival.(endpoint) with
      | None -> 0.0
      | Some a -> Sweep_oracle.tightness delay a
    in
    { vertices; edges; delay; criticality }

  let trace g ~forms ~arrival ~endpoint =
    match ml_prefix g ~forms ~arrival endpoint with
    | None -> None
    | Some (vertices, edges) ->
        Some (path_of g ~forms ~arrival ~endpoint vertices edges)

  let top_paths g ~forms ~arrival ~endpoint ~k =
    match trace g ~forms ~arrival ~endpoint with
    | None -> []
    | Some best ->
        let seen = Hashtbl.create 17 in
        let key p = String.concat "," (List.map string_of_int p.edges) in
        Hashtbl.replace seen (key best) ();
        let candidates = ref [ best ] in
        (* Branch: at each vertex of the best path, divert onto each alternate
           fanin arc, complete the upstream side with ML tracing, and keep the
           best path's suffix downstream.  varr.(i-1) -e(i-1)-> varr.(i). *)
        let varr = Array.of_list best.vertices in
        let earr = Array.of_list best.edges in
        let n = Array.length earr in
        for i = 1 to n do
          let v = varr.(i) in
          let chosen = earr.(i - 1) in
          let downstream_edges = Array.to_list (Array.sub earr i (n - i)) in
          let downstream_vertices =
            Array.to_list (Array.sub varr (i + 1) (n - i))
          in
          List.iter
            (fun e ->
              if e <> chosen && arrival.(g.Tgraph.src.(e)) <> None then
                match ml_prefix g ~forms ~arrival (g.Tgraph.src.(e)) with
                | None -> ()
                | Some (pre_vertices, pre_edges) ->
                    let vs = pre_vertices @ (v :: downstream_vertices) in
                    let es = pre_edges @ (e :: downstream_edges) in
                    let p = path_of g ~forms ~arrival ~endpoint vs es in
                    let kk = key p in
                    if not (Hashtbl.mem seen kk) then begin
                      Hashtbl.replace seen kk ();
                      candidates := p :: !candidates
                    end)
            (fanin_edges g v)
        done;
        let sorted =
          List.sort (fun a b -> compare b.criticality a.criticality) !candidates
        in
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        take k sorted
end

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let path_equal p q =
  p.vertices = q.vertices && p.edges = q.edges
  && Sweep_oracle.same_bits p.delay q.delay
  && bits_equal p.criticality q.criticality

let pp_path p =
  Printf.sprintf "[%s] crit=%h"
    (String.concat "," (List.map string_of_int p.edges))
    p.criticality

(* Index and oracle agree on [endpoint]: the ML trace and the top-k
   lists, path for path. *)
let agree ix g ~forms ~arrival ~endpoint ~k =
  let t_ix = H.Path_report.trace ix ~endpoint
  and t_or = Oracle.trace g ~forms ~arrival ~endpoint in
  let trace_ok =
    match (t_ix, t_or) with
    | None, None -> true
    | Some p, Some q -> path_equal p q
    | _ -> false
  in
  let got = H.Path_report.top_paths ix ~endpoint ~k
  and want = Oracle.top_paths g ~forms ~arrival ~endpoint ~k in
  if trace_ok && List.length got = List.length want
     && List.for_all2 path_equal got want
  then Ok ()
  else
    Error
      (Printf.sprintf "endpoint %d k=%d: index [%s] vs oracle [%s]" endpoint k
         (String.concat "; " (List.map pp_path got))
         (String.concat "; " (List.map pp_path want)))

(* ------------------------------------------------------------------ *)
(* Random DAGs                                                         *)
(* ------------------------------------------------------------------ *)

(* A random DAG with reconvergence (1-4 fanins per vertex, sometimes a
   parallel arc), forms that are sometimes exact copies of each other or
   zero-sigma (forcing tightness ties), and an arrival state swept from a
   random subset of the vertices - internal ones included - with a few
   reached vertices then knocked out, so unreached vertices and ML chains
   that dead-end both occur. *)
let random_case seed =
  let rng = Rng.create ~seed in
  let n = 3 + Rng.int rng 40 in
  let n_roots = 1 + Rng.int rng (max 1 (n / 5)) in
  let edges = ref [] in
  for v = n_roots to n - 1 do
    for _ = 0 to Rng.int rng 4 do
      edges := (Rng.int rng v, v) :: !edges
    done
  done;
  let edges = Array.of_list (List.rev !edges) in
  let has_fanin = Array.make n false and has_fanout = Array.make n false in
  Array.iter
    (fun (s, d) ->
      has_fanout.(s) <- true;
      has_fanin.(d) <- true)
    edges;
  let pick p = List.filter p (List.init n Fun.id) in
  let g =
    Tgraph.make ~n_vertices:n ~edges
      ~inputs:(Array.of_list (pick (fun v -> not has_fanin.(v))))
      ~outputs:(Array.of_list (pick (fun v -> not has_fanout.(v))))
  in
  let dims = Rng.int rng 3 and npcs = Rng.int rng 4 in
  let fresh () =
    let mean = float_of_int (1 + Rng.int rng 4) in
    match Rng.int rng 4 with
    | 0 ->
        Form.make ~mean ~globals:(Array.make dims 0.0)
          ~pcs:(Array.make npcs 0.0) ~rand:0.0
    | _ ->
        Form.make ~mean
          ~globals:(Array.init dims (fun _ -> 0.1 *. mean *. Rng.uniform rng))
          ~pcs:(Array.init npcs (fun _ -> 0.1 *. mean *. Rng.uniform rng))
          ~rand:(if Rng.int rng 3 = 0 then 0.0 else 0.05 *. mean)
  in
  let forms = Array.make (Tgraph.n_edges g) (fresh ()) in
  for e = 1 to Array.length forms - 1 do
    if Rng.int rng 3 <> 0 then forms.(e) <- fresh ()
    else forms.(e) <- forms.(Rng.int rng e)
  done;
  let sources =
    match pick (fun v -> (not has_fanin.(v)) || Rng.int rng 8 = 0) with
    | l when Rng.int rng 3 = 0 -> List.filter (fun _ -> Rng.int rng 2 = 0) l
    | l -> l
  in
  let arrival =
    Sweep_oracle.forward g ~forms ~sources:(Array.of_list sources)
  in
  for v = 0 to n - 1 do
    if Rng.int rng 10 = 0 then arrival.(v) <- None
  done;
  (g, forms, arrival)

let prop_random_dags seed =
  let g, forms, arrival = random_case seed in
  let fbuf = Sweep_oracle.pack_like forms in
  let ix =
    H.Path_report.index g ~forms:fbuf
      ~arrival:(Sweep_oracle.workspace_of ~dims:(Form_buf.dims fbuf) arrival)
  in
  List.for_all
    (fun k ->
      List.for_all
        (fun endpoint ->
          match agree ix g ~forms ~arrival ~endpoint ~k with
          | Ok () -> true
          | Error msg -> QCheck.Test.fail_report msg)
        (List.init (Tgraph.n_vertices g) Fun.id))
    [ 1; 3; 50 ]

let qcheck_random_dags =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"index = oracle on random DAGs, k in {1, 3, 50}"
       QCheck.(int_range 0 1_000_000)
       prop_random_dags)

(* ------------------------------------------------------------------ *)
(* ISCAS circuits                                                      *)
(* ------------------------------------------------------------------ *)

let test_iscas_outputs () =
  List.iter
    (fun name ->
      let b = Build.characterize (Ssta_circuit.Iscas.build name) in
      let g = b.Build.graph and fbuf = b.Build.forms in
      let forms = Sweep_oracle.unpack fbuf in
      let arrival = Sweep_oracle.forward_all g ~forms in
      (* One index shared by every output, as the callers use it. *)
      let ix =
        H.Path_report.index g ~forms:fbuf
          ~arrival:(Sweep_oracle.workspace_of ~dims:(Form_buf.dims fbuf) arrival)
      in
      Array.iter
        (fun endpoint ->
          match agree ix g ~forms ~arrival ~endpoint ~k:5 with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s %s" name msg)
        g.Tgraph.outputs)
    [ "c432"; "c1908"; "c6288"; "c7552" ]

(* One index reused the way a serve session reuses its own: reset before
   every query, its workspace re-loaded whenever the next query is over
   the other of two arrival states (every input, or every other input),
   the (endpoint, state) queries in a shuffled order.  An ML edge or a
   prefix slot surviving a reset would answer for the wrong state. *)
let test_reused_index () =
  List.iter
    (fun name ->
      let b = Build.characterize (Ssta_circuit.Iscas.build name) in
      let g = b.Build.graph and fbuf = b.Build.forms in
      let forms = Sweep_oracle.unpack fbuf in
      let inputs = g.Tgraph.inputs in
      let states =
        [|
          Sweep_oracle.forward_all g ~forms;
          Sweep_oracle.forward g ~forms
            ~sources:
              (Array.of_list
                 (List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list inputs)));
        |]
      in
      let queries =
        Array.concat
          (List.map
             (fun s -> Array.map (fun o -> (o, s)) g.Tgraph.outputs)
             [ 0; 1 ])
      in
      let rng = Rng.create ~seed:20261020 in
      for i = Array.length queries - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let q = queries.(i) in
        queries.(i) <- queries.(j);
        queries.(j) <- q
      done;
      let ws = H.Propagate.create_workspace () in
      let ix = H.Path_report.index g ~forms:fbuf ~arrival:ws in
      let loaded = ref (-1) in
      Array.iter
        (fun (endpoint, s) ->
          if s <> !loaded then begin
            H.Propagate.ws_load ws ~dims:(Form_buf.dims fbuf) states.(s);
            loaded := s
          end;
          H.Path_report.reset ix;
          match agree ix g ~forms ~arrival:states.(s) ~endpoint ~k:5 with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s state %d %s" name s msg)
        queries)
    [ "c432"; "c1908"; "c7552" ]

(* ------------------------------------------------------------------ *)
(* The tracer's fanin probe: Form_buf.tightness of an add_into sum      *)
(* ------------------------------------------------------------------ *)

(* Coefficients drawn from ordinary values mixed with signed zeros and
   subnormals, so the fused sums and squares see the operands where a
   reordering or a dropped rounding would show. *)
let gen_coeff =
  QCheck.Gen.(
    frequency
      [
        (4, float_range (-3.0) 3.0);
        ( 3,
          oneofl
            [ 0.0; -0.0; 5e-324; -5e-324; 1e-310; -1e-310; 2.2e-308; 1.0 ] );
      ])

let gen_rand =
  QCheck.Gen.(
    frequency
      [
        (4, float_range 0.0 2.0);
        (3, oneofl [ 0.0; -0.0; 5e-324; 1e-310; 2.2e-308 ]);
      ])

let gen_triple =
  QCheck.Gen.(
    int_range 0 3 >>= fun ng ->
    int_range 0 4 >>= fun np ->
    let form =
      map4
        (fun mean g p r ->
          { Form.mean; globals = Array.of_list g; pcs = Array.of_list p; rand = r })
        (frequency [ (4, float_range (-20.0) 20.0); (1, gen_coeff) ])
        (list_repeat ng gen_coeff) (list_repeat np gen_coeff) gen_rand
    in
    triple form form form)

let qcheck_fanin_tightness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000
       ~name:"slot tightness of a + f against b = oracle, bit for bit"
       (QCheck.make
          ~print:(fun (a, f, b) ->
            Format.asprintf "a=%a f=%a b=%a" Form.pp a Form.pp f Form.pp b)
          gen_triple)
       (fun (a, f, b) ->
         let buf = Sweep_oracle.pack_like [| a; f; b |] in
         Form_buf.add_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:0;
         bits_equal
           (Form_buf.tightness buf 0 buf 2)
           (Sweep_oracle.tightness (Sweep_oracle.add a f) b)))

let suites =
  [
    ( "path_report.index",
      [
        qcheck_random_dags;
        Alcotest.test_case "index = oracle on c432/c1908/c6288/c7552 outputs"
          `Quick test_iscas_outputs;
        Alcotest.test_case
          "one reset index, shuffled endpoints over two states = oracle"
          `Quick test_reused_index;
        qcheck_fanin_tightness;
      ] );
  ]
