(* serve-eco: the request path of an in-process Serve engine holding c7552
   resident, under a seeded ECO mix (Gen.mix).  A closed-loop
   single-client phase gives the latency a synchronous client sees and the
   saturation throughput.  Two open-loop phases follow, on a pristine
   engine: Poisson arrivals at fixed rates hand every request already due
   to Serve.handle_lines, as the daemon drains its socket; latency runs
   from the due time.  No extraction runs here: scenario re-sweeps and
   paths dominate, and the heavier rate forms groups, which exercises
   batch dedup.

   The end-to-end metrics come from the closed loop, per request kind
   (Flow.e2e_of_kinds with the mix shares as weights): half the requests
   are ~0.1 ms plain quantiles, so the median of the pooled requests would
   sit on the boundary between them and the slower kinds and jump between
   the two from run to run.  Open-loop latency at a fixed rate also
   carries the queueing factor 1/(1 - load), which turns a 10 % change in
   machine speed into a far larger change in latency; its numbers, the
   tail limit and the backlog are reported in the ledger lines and the
   per-layer metrics. *)

open Flow
module Serve = Ssta_serve.Serve
module Json = Ssta_json.Json
module Gen = Ledger.Gen
module Openloop = Ledger.Openloop

(* About 25 % and 75 % of the closed-loop capacity of a 2-core box. *)
let rates = [| (150.0, "r150"); (450.0, "r450") |]

(* Latency limit on the tail percentile (Stats.tail) at each fixed rate. *)
let tail_limit_ms = 25.0

(* Share of --seconds per phase: the closed loop and each open-loop rate. *)
let open_share = 0.2
let closed_share = 0.6

let ok resp =
  match Json.parse resp with
  | Ok j -> Json.bool_field ~default:false "ok" j = Ok true
  | Error _ -> false

let num_field key resp =
  match Json.parse resp with
  | Ok j -> ( match Json.num_field key j with Ok v -> Some v | Error _ -> None)
  | Error _ -> None

(* A fresh engine with c7552 loaded and every lazy preparation done: one
   transient request of each kind (nothing committed), every scenario
   once. *)
let engine () =
  let t = Serve.create () in
  let resp = Serve.handle_line t {|{"op":"load","design":"c7552"}|} in
  if not (ok resp) then failwith ("serve-eco: load failed: " ^ resp);
  let n_edges = int_of_float (Option.get (num_field "n_edges" resp)) in
  let rng = Ssta_gauss.Rng.create ~seed:0 in
  List.iter
    (fun kind ->
      let r = Serve.handle_lines t [ Gen.request rng ~n_edges ~id:(-1) kind ] in
      if not (List.for_all ok r) then failwith "serve-eco: warm-up failed")
    (Gen.[ Quantile; Whatif; Paths; Report ]
    @ List.init (Array.length Gen.scenarios) (fun _ -> Gen.Scenario));
  (t, n_edges)

type phase = {
  due : float array;
  lines : (Gen.kind * string) array;
  first_id : int;  (** request id of lines.(0) *)
}

type state = {
  t : Serve.t;
  open_phases : phase array;
  closed : (Gen.kind * string) array;
  closed_first : int;  (** request id of closed.(0) *)
}

let setup_state ~seed ~seconds () =
  let t, n_edges = engine () in
  let first = ref 0 in
  let open_phases =
    Array.mapi
      (fun k (rate, _) ->
        let due =
          Gen.arrivals ~seed ~stream:(2 * k) ~rate
            ~duration:(open_share *. seconds)
        in
        let first_id = !first in
        let lines =
          Gen.requests ~seed ~stream:((2 * k) + 1) ~n_edges ~first_id
            (Array.length due)
        in
        first := first_id + Array.length due;
        { due; lines; first_id })
      rates
  in
  (* More than the engine can answer in the closed-loop share. *)
  let closed =
    Gen.requests ~seed ~stream:(2 * Array.length rates) ~n_edges ~first_id:!first
      (int_of_float (2000.0 *. closed_share *. seconds) + 1)
  in
  { t; open_phases; closed; closed_first = !first }

type open_result = { res : Openloop.result; responses : string array }

let run_open t ~label { due; lines; first_id } =
  let n = Array.length lines in
  let responses = Array.make n "" in
  let t0 = now () in
  let due = Array.map (fun d -> t0 +. d) due in
  let id k = first_id + k in
  let res =
    Trace.span ("openloop." ^ label) (fun () ->
        Openloop.run ~clock:Openloop.real_clock ~due (fun ~start first last ->
            let group = Trace.peek_id () in
            let batch = List.init (last - first + 1) (fun k -> first + k) in
            let out =
              Trace.span ~harvest:true ~reqs:(List.map id batch)
                "serve.handle_lines" (fun () ->
                  Serve.handle_lines t (List.map (fun k -> snd lines.(k)) batch))
            in
            let done_ = now () in
            List.iteri (fun k r -> responses.(first + k) <- r) out;
            List.iter
              (fun k ->
                Trace.add_request ~rid:(id k) ~group ~due:due.(k) ~served:start
                  ~done_)
              batch))
  in
  { res; responses }

let run ~seed ~seconds ~trace =
  let st, su = setup (setup_state ~seed ~seconds) in
  let a0, m0 = gc_snapshot () in
  (* Closed loop: one client, next request when the previous is answered,
     until the budget is spent and every kind has run; in a traced run
     every second request is traced. *)
  let budget = closed_share *. seconds in
  let t_start = now () in
  let kinds = List.map fst Gen.mix in
  let untraced = Hashtbl.create 8 and traced = Hashtbl.create 8 in
  let times tbl kind = Option.value ~default:[] (Hashtbl.find_opt tbl kind) in
  let seen kind = times untraced kind <> [] || times traced kind <> [] in
  (* Responses are checked as they come rather than kept, so memory does
     not grow with the number of requests the budget allowed. *)
  let closed_failed = ref 0 and dirty = ref [] in
  let i = ref 0 in
  while
    !i < Array.length st.closed
    && (now () -. t_start < budget || not (List.for_all seen kinds))
  do
    let kind, line = st.closed.(!i) in
    let tr = trace && !i mod 2 = 1 in
    Trace.set_enabled tr;
    let t0 = now () in
    let out =
      Trace.span ~req:(st.closed_first + !i) "closedloop.request" (fun () ->
          Trace.span ~harvest:true "serve.handle_lines" (fun () ->
              Serve.handle_lines st.t [ line ]))
    in
    let dt = now () -. t0 in
    Trace.set_enabled false;
    let tbl = if tr then traced else untraced in
    Hashtbl.replace tbl kind (dt :: times tbl kind);
    List.iter
      (fun r ->
        if not (ok r) then incr closed_failed;
        Option.iter (fun d -> dirty := d :: !dirty) (num_field "dirty_vertices" r))
      out;
    incr i
  done;
  let closed_s = now () -. t_start in
  let a1, m1 = gc_snapshot () in
  (* Read before the open loop: how far its backlog grows in a slow
     period would set the peak otherwise. *)
  let memory = memory () in
  let n_closed = !i in
  (* From here on set-up repeats between the phases and the replayed
     requests (Flow.setup_between): a second engine next to the resident
     one would raise the peak read above. *)
  let t_post = now () and setup_spent = ref 0.0 in
  let setup_between () = setup_between su ~t_start:t_post ~spent:setup_spent in
  (* Open loop, on a pristine engine: traced throughout in a traced run,
     since the queueing it measures is the point of the trace.  The daemon
     sheds a request group beyond its queue bound; raised to the request
     count, a backlog shows as latency, not as shed (failed) requests. *)
  let t_open, _ = engine () in
  Serve.set_max_queue t_open st.closed_first;
  let a2, m2 = gc_snapshot () and s2 = (su.alloc_mb, su.majors) in
  let opens =
    Array.mapi
      (fun k p ->
        setup_between ();
        Trace.set_enabled trace;
        let o = run_open t_open ~label:(snd rates.(k)) p in
        Trace.set_enabled false;
        o)
      st.open_phases
  in
  let a3, m3 = gc_snapshot () and s3 = (su.alloc_mb, su.majors) in
  (* ---- output checks ---- *)
  let all_open = Array.concat (Array.to_list (Array.map (fun o -> o.responses) opens)) in
  let failed_responses =
    Array.fold_left (fun acc r -> if ok r then acc else acc + 1) !closed_failed all_open
  in
  check (failed_responses = 0) "serve-eco: %d responses not ok" failed_responses;
  (* Grouping must never change an answer: replay the open-loop requests
     one by one on a pristine engine and compare byte for byte. *)
  let fresh, _ = engine () in
  let mismatches = ref 0 in
  let k = ref 0 in
  Array.iter
    (fun p ->
      Array.iter
        (fun (_, line) ->
          setup_between ();
          if Serve.handle_line fresh line <> all_open.(!k) then incr mismatches;
          incr k)
        p.lines)
    st.open_phases;
  check (!mismatches = 0)
    "serve-eco: %d open-loop responses differ from a closed-loop replay"
    !mismatches;
  (* ---- ledger ---- *)
  let ms a = Array.map (fun s -> s *. 1000.0) a in
  let sat_rps = ref 0.0 in
  let layer = ref [] in
  (* requests answered in a group of two or more *)
  let grouped = ref 0 and n_open = ref 0 in
  Array.iteri
    (fun k o ->
      let rate, label = rates.(k) in
      let lat = ms o.res.Openloop.latency in
      let pt, tail = Stats.tail lat in
      let n = Array.length lat in
      (* no growing backlog: the last request is answered within the limit *)
      let met = tail <= tail_limit_ms && lat.(n - 1) <= tail_limit_ms in
      if met then sat_rps := Float.max !sat_rps rate;
      let groups = o.res.Openloop.groups in
      let sizes = Array.map (fun (a, b) -> b - a + 1) groups in
      Array.iter (fun sz -> if sz >= 2 then grouped := !grouped + sz) sizes;
      let mean_size = float_of_int n /. float_of_int (max 1 (Array.length sizes)) in
      n_open := !n_open + n;
      Printf.printf
        "  %s: %d requests, p50 %.2f ms, p%g %.2f ms (limit %.0f ms: %s); %d groups, mean size %.2f, backlog at end %d, generator late p99 %.3f ms\n"
        label n (Stats.median lat) pt tail tail_limit_ms
        (if met then "met" else "MISSED")
        (Array.length groups) mean_size
        o.res.Openloop.backlog_end
        (if o.res.Openloop.late = [||] then 0.0
         else Stats.percentile (Stats.sorted (ms o.res.Openloop.late)) 99.0);
      layer :=
        [
          ("serve.latency_p50_ms_" ^ label, Stats.median lat);
          ("serve.latency_tail_ms_" ^ label, tail);
          ("serve.group_size_" ^ label, mean_size);
          ( "serve.queue_wait_pct_" ^ label,
            100.0 *. sum o.res.Openloop.wait /. sum o.res.Openloop.latency );
          ("serve.backlog_end_" ^ label, float_of_int o.res.Openloop.backlog_end);
        ]
        @ !layer)
    opens;
  let arr tbl kind = Array.of_list (List.rev (times tbl kind)) in
  let weight kind = float_of_int (List.assoc kind Gen.mix) /. 1000.0 in
  List.iter
    (fun kind ->
      let s = Stats.sorted (ms (Array.append (arr untraced kind) (arr traced kind))) in
      Printf.printf "  closed loop %-8s n=%5d  p50 %7.3f ms  p99 %7.3f ms\n"
        (Gen.kind_name kind) (Array.length s) (Stats.percentile s 50.0)
        (Stats.percentile s 99.0))
    kinds;
  let measured kind =
    if trace then Array.append (arr untraced kind) (arr traced kind) else arr untraced kind
  in
  let dirty = List.filter_map (num_field "dirty_vertices") (Array.to_list all_open) @ !dirty in
  Printf.printf
    "serve-eco: closed loop %d requests, %.0f req/s; highest rate meeting the tail limit %.0f req/s\n"
    n_closed
    (float_of_int n_closed /. closed_s)
    !sat_rps;
  let traced_ops = if trace then !n_open + (n_closed / 2) else 0 in
  {
    setup_s = setup_s su;
    memory;
    attempted = !n_open + n_closed;
    e2e =
      e2e_of_kinds
        ~kinds:(List.map (fun kind -> (weight kind, measured kind)) kinds)
        ~whole:(Array.concat (List.map measured kinds));
    traced_ops;
    per_op =
      List.map
        (fun root -> (root, float_of_int traced_ops))
        ("closedloop.request" :: Array.to_list (Array.map (fun (_, l) -> "openloop." ^ l) rates));
    overhead_pct =
      overhead_pct
        (List.map (fun kind -> (weight kind, arr untraced kind, arr traced kind)) kinds);
    gc_alloc_mb = ((a1 -. a0 +. (a3 -. a2)) /. 1e6) -. (fst s3 -. fst s2);
    gc_majors = m1 - m0 + (m3 - m2) - (snd s3 - snd s2);
    layer =
      [
        ( "serve.dirty_vertices",
          if dirty = [] then 0.0
          else List.fold_left ( +. ) 0.0 dirty /. float_of_int (List.length dirty) );
        ( "serve.batched_pct",
          100.0 *. float_of_int !grouped /. float_of_int (max 1 !n_open) );
        ("serve.sat_rps", !sat_rps);
      ]
      @ !layer;
  }
