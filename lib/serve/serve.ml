module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Build = Ssta_timing.Build
module N = Ssta_circuit.Netlist
module Propagate = Hier_ssta.Propagate
module Path_report = Hier_ssta.Path_report
module Yield = Hier_ssta.Yield
module Batch = Ssta_batch.Batch
module Json = Ssta_json.Json
module Robust = Ssta_robust.Robust
module Deadline = Ssta_robust.Deadline
module Crash = Ssta_robust.Crash
module Rng = Ssta_gauss.Rng
module Normal = Ssta_gauss.Normal
module Obs = Ssta_obs.Obs
module FDesign = Ssta_frontend.Design
module FSdc = Ssta_frontend.Sdc

(* ------------------------------------------------------------------ *)
(* Observability handles                                              *)

let c_requests = Obs.counter "serve.requests"
let c_errors = Obs.counter "serve.request_errors"
let c_cache_hits = Obs.counter "serve.cache_hits"
let c_cache_misses = Obs.counter "serve.cache_misses"
let c_memo_hits = Obs.counter "serve.scenario_memo_hits"
let c_whatif_incr = Obs.counter "serve.whatif_incremental"
let c_whatif_full = Obs.counter "serve.whatif_full"
let g_queue_depth = Obs.gauge "serve.queue_depth"
let c_disk_hits = Obs.counter "serve.cache_disk_hits"
let c_wal_records = Obs.counter "serve.wal_records"
let c_recoveries = Obs.counter "serve.recoveries"
let c_shed = Obs.counter "serve.shed"
let c_timeouts = Obs.counter "serve.timeouts"
let g_wal_bytes = Obs.gauge "serve.wal_bytes"
let c_protocol_repairs = Robust.counter "robust.protocol_repairs"

let protocol_repair ~operation ?indices ?values detail =
  Robust.repair c_protocol_repairs
    (Robust.context ~subsystem:"serve" ~operation ?indices ?values detail)

(* ------------------------------------------------------------------ *)
(* Engine state                                                       *)

(* How the current session was created - recorded so the WAL and the
   checkpoint can restore it after a crash.  [Files] keeps the paths the
   client sent; replaying a load_files record re-reads those files, which
   is the documented recovery contract for external designs. *)
type origin =
  | Bundled of string
  | Files of { verilog : string; liberty : string; sdc : string option }

type session = {
  design : string;
  origin : origin;
  build : Build.t;
  fbuf : Form_buf.t;  (** current edge forms (what-if edits applied) *)
  ws : Propagate.workspace;  (** holds the current completed arrival sweep *)
  paths : Path_report.index;
      (** over [fbuf] and [ws]; reset by every [paths] request *)
  dirty : Bytes.t;  (** per-vertex dirty mask scratch *)
  mutable base : Batch.base option;  (** lazy, over the pristine forms *)
  memo : (string, Batch.result) Hashtbl.t;
      (** scenario results over [base], keyed on the scenario's JSON (see
          [memo_add]) *)
  committed : (int, Form.t) Hashtbl.t;
      (** committed edge edits (absolute forms) - the checkpoint's diff
          against the pristine build *)
  sdc : FSdc.t option;
      (** constraints of a [load_files] design; the report op defaults
          its reference clock to the SDC period *)
}

type t = {
  cache : (string, Build.t) Hashtbl.t;  (** content hash -> model *)
  store : Store.t option;  (** durable cache + WAL, None without --cache-dir *)
  mutable max_queue : int;  (** pending-request bound before shedding *)
  mutable session : session option;
  mutable stop : bool;
  mutable pending_wal : (string * Json.t) list option;
      (** armed by a state-changing op: the kind-specific WAL record
          fields; handle_line adds the request digest and response and
          appends after the response is built, before it is sent *)
  mutable pending_spill : (string * Build.t) option;
      (** freshly characterized model awaiting its disk spill (deferred to
          after the WAL append so crash recovery replays observably) *)
  mutable last_commit : (string * string) option;
      (** request digest + response of the last WAL-logged request *)
  mutable dedup : (string * string) option;
      (** set by recovery: a re-sent logged-but-unanswered request gets
          its logged response back instead of being applied twice *)
  mutable ewma_ms : float;  (** smoothed per-request service time *)
}

let make ?cache_dir ?(max_queue = 256) ?(checkpoint_every = 64) () =
  {
    cache = Hashtbl.create 7;
    store = Option.map (Store.open_store ~checkpoint_every) cache_dir;
    max_queue;
    session = None;
    stop = false;
    pending_wal = None;
    pending_spill = None;
    last_commit = None;
    dedup = None;
    ewma_ms = 1.0;
  }

let cache_size t = Hashtbl.length t.cache
let set_max_queue t n = t.max_queue <- max 1 n

(* ------------------------------------------------------------------ *)
(* Content-hashed model cache                                         *)

(* The cache key covers exactly what characterization consumes: the
   netlist structure (inputs, per-gate cell + fanins, outputs — NOT the
   netlist's display name), the cell delay parameters (an external .lib
   may redefine a bundled cell name with different numbers) and a tag
   for the characterization config and the marshaled [Build.t] layout
   (v3: edge forms in one slab), so an entry spilled by an older layout
   is a miss, never unmarshaled into the new one.  Two designs with
   identical structure share one characterized model; renaming a design
   never invalidates it. *)
let config_tag = "characterize:v3:default"

let digest_of_netlist nl =
  let b = Buffer.create 4096 in
  Buffer.add_string b config_tag;
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int nl.N.n_pi);
  Array.iter
    (fun (g : N.gate) ->
      let c = g.N.cell in
      Buffer.add_char b '|';
      Buffer.add_string b c.Ssta_cell.Cell.name;
      Buffer.add_char b '@';
      Buffer.add_string b (Printf.sprintf "%h" c.Ssta_cell.Cell.d0);
      Array.iter
        (fun s -> Buffer.add_string b (Printf.sprintf ";%h" s))
        c.Ssta_cell.Cell.sens;
      Buffer.add_string b (Printf.sprintf ";%h" c.Ssta_cell.Cell.load_sens);
      Array.iter
        (fun f ->
          Buffer.add_char b ',';
          Buffer.add_string b (string_of_int f))
        g.N.fanins)
    nl.N.gates;
  Buffer.add_char b '>';
  Array.iter
    (fun o ->
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int o))
    nl.N.outputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let netlist_of_name name =
  let fail detail = Robust.fail ~subsystem:"serve" ~operation:"load" detail in
  match Ssta_circuit.Iscas.resolve name with
  | Ok nl -> nl
  | Error (Ssta_circuit.Iscas.Bad_bench m) -> fail ("bad .bench file: " ^ m)
  | Error (Ssta_circuit.Iscas.Unknown m) ->
      fail ("unknown design (not bundled, not a .bench path): " ^ m)

(* Disk entries hold a marshaled Build.t (plain records and float/int
   arrays all the way down).  Store.load_model has already verified the
   length+checksum trailer, so Marshal only ever sees bytes that were
   written whole; a version-skewed payload that still unmarshals wrong
   is caught by the same quarantine path. *)
let model_of_payload ~digest payload =
  match (Marshal.from_string payload 0 : Build.t) with
  | b -> Some b
  | exception _ ->
      Robust.repair Store.c_cache_corrupt
        (Robust.context ~subsystem:"serve.cache" ~operation:"unmarshal"
           (Printf.sprintf "model cache entry %s.model does not unmarshal"
              digest));
      None

(* The freshly characterized model is *not* spilled here: the spill is
   deferred (t.pending_spill) until after the request's WAL record is
   durable, so the crash harness sees a consistent order - a torn WAL
   append implies the spill never happened either, and a re-sent load
   recomputes exactly like the uninterrupted run did. Recovery replay
   and preload flush the spill immediately instead. *)
let characterize_cached t nl =
  let key = digest_of_netlist nl in
  match Hashtbl.find_opt t.cache key with
  | Some b ->
      Obs.incr c_cache_hits;
      (b, true)
  | None -> (
      let from_disk =
        match t.store with
        | None -> None
        | Some st -> (
            match Store.load_model st ~digest:key with
            | None -> None
            | Some payload -> model_of_payload ~digest:key payload)
      in
      match from_disk with
      | Some b ->
          Obs.incr c_cache_hits;
          Obs.incr c_disk_hits;
          Hashtbl.add t.cache key b;
          (b, true)
      | None ->
          Obs.incr c_cache_misses;
          let b =
            Obs.with_span "serve.characterize" (fun () -> Build.characterize nl)
          in
          Hashtbl.add t.cache key b;
          if t.store <> None then t.pending_spill <- Some (key, b);
          (b, false))

let flush_spill t =
  match (t.pending_spill, t.store) with
  | Some (digest, b), Some st ->
      t.pending_spill <- None;
      ignore (Store.spill_model st ~digest (Marshal.to_string b []))
  | _ -> t.pending_spill <- None

(* The one session-load path: the load/swap and load_files requests,
   WAL replay and checkpoint restore all come here.  Recovery has no
   response to wait for, so [~replay:true] spills a freshly
   characterized model at once; a request's spill waits until its WAL
   record is durable (handle_line). *)
let load_origin ~replay t origin =
  let nl, sdc =
    match origin with
    | Bundled name -> (netlist_of_name name, None)
    | Files { verilog; liberty; sdc } ->
        let d = FDesign.load_files ~verilog ~liberty ?sdc () in
        ((FDesign.lower d).FDesign.netlist, Some d.FDesign.sdc)
  in
  let build, cached = characterize_cached t nl in
  let g = build.Build.graph in
  let fbuf = Form_buf.copy build.Build.forms in
  let ws = Propagate.create_workspace () in
  Propagate.forward_into ws g ~forms:fbuf ~sources:g.Tgraph.inputs;
  let s =
    {
      design = (match origin with Bundled name -> name | Files _ -> nl.N.name);
      origin;
      build;
      fbuf;
      ws;
      paths = Path_report.index g ~forms:fbuf ~arrival:ws;
      dirty = Bytes.create (Tgraph.n_vertices g);
      base = None;
      memo = Hashtbl.create 16;
      committed = Hashtbl.create 7;
      sdc;
    }
  in
  t.session <- Some s;
  if replay then flush_spill t;
  (s, cached)

(* One codec for the origin in both durable files.  A WAL record is
   tagged "load" / "load_files", the checkpoint's session "bundled" /
   "files"; the other fields are the same. *)
let origin_tags ~wal = if wal then ("load", "load_files") else ("bundled", "files")

let origin_fields ~wal origin =
  let bundled, files = origin_tags ~wal in
  match origin with
  | Bundled name -> [ ("kind", Json.Str bundled); ("design", Json.Str name) ]
  | Files { verilog; liberty; sdc } ->
      [
        ("kind", Json.Str files);
        ("verilog", Json.Str verilog);
        ("liberty", Json.Str liberty);
      ]
      @ (match sdc with None -> [] | Some p -> [ ("sdc", Json.Str p) ])

let origin_of_json ~wal ~operation j =
  let bundled, files = origin_tags ~wal in
  let str key = match Json.find key j with Some (Json.Str s) -> Some s | _ -> None in
  let fail detail = Robust.fail ~subsystem:"serve.wal" ~operation detail in
  match str "kind" with
  | Some k when k = bundled -> (
      match str "design" with
      | Some name -> Bundled name
      | None -> fail (k ^ " record has no design field"))
  | Some k when k = files -> (
      match (str "verilog", str "liberty") with
      | Some verilog, Some liberty -> Files { verilog; liberty; sdc = str "sdc" }
      | _ -> fail (k ^ " record is missing verilog/liberty paths"))
  | k ->
      fail
        (Printf.sprintf "unknown %s kind %S"
           (if wal then "WAL record" else "checkpoint session")
           (Option.value ~default:"" k))

let session_exn t ~operation =
  match t.session with
  | Some s -> s
  | None ->
      Robust.fail ~subsystem:"serve" ~operation
        "no design loaded (send {\"op\":\"load\",\"design\":...} first)"

let batch_base s =
  match s.base with
  | Some b -> b
  | None ->
      let b = Batch.prepare s.build in
      s.base <- Some b;
      b

(* ---- scenario memo -------------------------------------------------- *)

(* A scenario quantile reads only the batch base, which is built over the
   pristine forms [s.build.forms] and never over the edited [s.fbuf], so
   its result is a pure function of (session, scenario): commits,
   transient what-ifs and reverts leave every memo entry valid, and a new
   session starts with an empty memo.  Only scenarios that decode without
   a repair are memoized - a repaired one is decoded by each request under
   the current policy, so repair counters stay per request - and a request
   with deadline_ms never reads or fills the memo: it runs its own sweep
   under its own deadline.  The memo holds at most [memo_cap] entries:
   an insert into a full memo starts it over. *)
let memo_cap = 64

let memo_add s key r =
  if Hashtbl.length s.memo >= memo_cap then Hashtbl.reset s.memo;
  Hashtbl.replace s.memo key r

(* The scenario if it decodes without a repair.  Strict raises before a
   repair counter moves, so a failed probe leaves no trace. *)
let strict_scenario sj =
  match Robust.with_policy Robust.Strict (fun () -> Batch.scenario_of_json 0 sj) with
  | sc -> Some sc
  | exception Robust.Error _ -> None

(* ------------------------------------------------------------------ *)
(* Analysis helpers                                                   *)

(* Design delay of the current arrival state: statistical max over the
   outputs the sweep reached. *)
let design_delay_form s =
  Propagate.ws_max_over s.ws s.build.Build.graph.Tgraph.outputs

let delay_fields f ~yield =
  [
    ("mean", Json.Num f.Form.mean);
    ("sigma", Json.Num (Form.std f));
    ("yield", Json.Num yield);
    ("clock", Json.Num (Yield.clock_for_yield f ~yield));
  ]

(* ------------------------------------------------------------------ *)
(* Request parsing helpers (robust: defects repair to defaults or, in
   strict policy, raise the structured error for this request only)    *)

let req_num ~operation ~default key j =
  match Json.num_field ~default key j with
  | Ok v -> v
  | Error msg ->
      protocol_repair ~operation msg;
      default

let req_str ~operation ~default key j =
  match Json.str_field ~default key j with
  | Ok v -> v
  | Error msg ->
      protocol_repair ~operation msg;
      default

let req_bool ~operation ~default key j =
  match Json.bool_field ~default key j with
  | Ok v -> v
  | Error msg ->
      protocol_repair ~operation msg;
      default

let req_yield ~operation j =
  let y = req_num ~operation ~default:0.99 "yield" j in
  if y > 0.0 && y < 1.0 then y
  else begin
    protocol_repair ~operation ~values:[ y ] "yield must lie in (0, 1)";
    0.99
  end

(* ------------------------------------------------------------------ *)
(* Operations                                                         *)

(* Load a session for a request: arm its WAL record and answer the
   design's size, plus the constraint summary of a load_files design. *)
let load_response t origin =
  let s, cached = load_origin ~replay:false t origin in
  t.pending_wal <- Some (origin_fields ~wal:true origin);
  let g = s.build.Build.graph in
  let count n = Json.Num (float_of_int n) in
  [
    ("design", Json.Str s.design);
    ("cached", Json.Bool cached);
    ("n_vertices", count (Tgraph.n_vertices g));
    ("n_edges", count (Tgraph.n_edges g));
    ("n_outputs", count (Array.length g.Tgraph.outputs));
  ]
  @
  match s.sdc with
  | None -> []
  | Some sdc ->
      [
        ("clocks", count (List.length sdc.FSdc.clocks));
        ("false_paths", count (List.length sdc.FSdc.false_paths));
      ]
      @ (match FSdc.clock_period sdc with
        | Some p -> [ ("period", Json.Num p) ]
        | None -> [])

let required_str ~operation key j =
  match Json.str_field key j with
  | Ok v -> v
  | Error msg -> Robust.fail ~subsystem:"serve" ~operation msg

let op_load t ~op j = load_response t (Bundled (required_str ~operation:op "design" j))

(* External-design load: parse + lower the Verilog/.lib/SDC trio, then
   enter the same cached-characterization path as bundled designs (the
   digest covers structure and cell numbers, so a re-read of the same
   files is a cache hit). *)
let op_load_files t j =
  let operation = "load_files" in
  let verilog = required_str ~operation "verilog" j in
  let liberty = required_str ~operation "liberty" j in
  let sdc =
    match Json.find "sdc" j with
    | Some (Json.Str p) -> Some p
    | None | Some Json.Null -> None
    | Some _ ->
        protocol_repair ~operation "sdc must be a path string; ignored";
        None
  in
  load_response t (Files { verilog; liberty; sdc })

let scenario_result_fields (r : Batch.result) ~yield =
  match r.Batch.delay with
  | None ->
      Robust.fail ~subsystem:"serve" ~operation:"quantile"
        "no output reachable under this scenario"
  | Some f -> ("label", Json.Str r.Batch.scenario.Batch.label) :: delay_fields f ~yield

let op_quantile t j =
  let operation = "quantile" in
  let s = session_exn t ~operation in
  let yield = req_yield ~operation j in
  match Json.find "scenario" j with
  | None | Some Json.Null -> (
      match design_delay_form s with
      | None ->
          Robust.fail ~subsystem:"serve" ~operation "no output reachable"
      | Some f -> delay_fields f ~yield)
  | Some sj when Json.mem "deadline_ms" j ->
      scenario_result_fields ~yield
        (Batch.run_one (batch_base s) (Batch.scenario_of_json 0 sj))
  | Some sj ->
      let key = Json.to_string sj in
      let r =
        match Hashtbl.find_opt s.memo key with
        | Some r ->
            Obs.incr c_memo_hits;
            r
        | None -> (
            match strict_scenario sj with
            | Some sc ->
                let r = Batch.run_one (batch_base s) sc in
                memo_add s key r;
                r
            | None -> Batch.run_one (batch_base s) (Batch.scenario_of_json 0 sj))
      in
      scenario_result_fields r ~yield

let op_report t j =
  let operation = "report" in
  let s = session_exn t ~operation in
  let yield = req_yield ~operation j in
  let clock =
    match Json.find "clock" j with
    | Some (Json.Num c) -> Some c
    | None | Some Json.Null ->
        (* A load_files session carries constraints: default the slack
           reference to the SDC clock period. *)
        Option.bind s.sdc FSdc.clock_period
    | Some _ ->
        protocol_repair ~operation "clock must be a number";
        None
  in
  let g = s.build.Build.graph in
  (* Moments straight from the sweep's slots; the clock is
     [Yield.clock_for_yield]'s [Form.quantile] in its operand order. *)
  let buf = Propagate.ws_buf s.ws and z = Normal.quantile yield in
  let outs =
    Array.to_list g.Tgraph.outputs
    |> List.map (fun o ->
           let base = [ ("vertex", Json.Num (float_of_int o)) ] in
           if not (Propagate.ws_reached s.ws o) then
             Json.Obj (base @ [ ("reachable", Json.Bool false) ])
           else begin
             let mean = Form_buf.mean buf o and sigma = Form_buf.std buf o in
             let q = mean +. (sigma *. z) in
             let slack =
               match clock with
               | None -> []
               | Some c -> [ ("slack", Json.Num (c -. q)) ]
             in
             Json.Obj
               (base
               @ [
                   ("mean", Json.Num mean);
                   ("sigma", Json.Num sigma);
                   ("clock", Json.Num q);
                 ]
               @ slack)
           end)
  in
  let clock_field =
    match clock with None -> [] | Some c -> [ ("ref_clock", Json.Num c) ]
  in
  (("yield", Json.Num yield) :: clock_field) @ [ ("outputs", Json.Arr outs) ]

let op_paths t j =
  let operation = "paths" in
  let s = session_exn t ~operation in
  let g = s.build.Build.graph in
  let k =
    let k = int_of_float (req_num ~operation ~default:3.0 "k" j) in
    if k >= 1 then k
    else begin
      protocol_repair ~operation ~indices:[ k ] "k must be >= 1";
      3
    end
  in
  let endpoint =
    match Json.find "output" j with
    | Some (Json.Num v) ->
        let v = int_of_float v in
        if Array.exists (fun o -> o = v) g.Tgraph.outputs then v
        else
          Robust.fail ~subsystem:"serve" ~operation ~indices:[ v ]
            "output is not a primary-output vertex of the current design"
    | None | Some Json.Null -> (
        (* Default: the worst output by mean arrival. *)
        match Propagate.ws_worst s.ws g.Tgraph.outputs with
        | Some o -> o
        | None -> Robust.fail ~subsystem:"serve" ~operation "no output reachable")
    | Some _ ->
        Robust.fail ~subsystem:"serve" ~operation
          "output must be a vertex number"
  in
  (* The session's index reads the resident sweep in place; only the k
     paths answered are boxed. *)
  Path_report.reset s.paths;
  let paths = Path_report.top_paths s.paths ~endpoint ~k in
  let path_json (p : Path_report.path) =
    Json.Obj
      [
        ( "vertices",
          Json.Arr
            (List.map (fun v -> Json.Num (float_of_int v)) p.Path_report.vertices)
        );
        ( "edges",
          Json.Arr
            (List.map (fun e -> Json.Num (float_of_int e)) p.Path_report.edges)
        );
        ("mean", Json.Num p.Path_report.delay.Form.mean);
        ("sigma", Json.Num (Form.std p.Path_report.delay));
        ("criticality", Json.Num p.Path_report.criticality);
      ]
  in
  [
    ("output", Json.Num (float_of_int endpoint));
    ("paths", Json.Arr (List.map path_json paths));
  ]

(* ---- what-if -------------------------------------------------------- *)

type edit = { edge : int; prev : Form.t; next : Form.t }

(* Canonical forms round-trip through JSON exactly: Json prints floats
   with %.17g, which reconstructs every binary64 bit-for-bit, so a WAL
   replay reproduces the committed forms - and therefore the sweep -
   bit-identically. *)
let form_json (f : Form.t) =
  let arr a = Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) a)) in
  Json.Obj
    [
      ("mean", Json.Num f.Form.mean);
      ("rand", Json.Num f.Form.rand);
      ("g", arr f.Form.globals);
      ("p", arr f.Form.pcs);
    ]

let form_of_json ~operation j =
  let num key =
    match Json.find key j with
    | Some (Json.Num v) -> v
    | _ ->
        Robust.fail ~subsystem:"serve.wal" ~operation
          (Printf.sprintf "logged form has no numeric %S field" key)
  in
  let arr key =
    match Json.find key j with
    | Some (Json.Arr l) ->
        Array.of_list
          (List.map
             (function
               | Json.Num v -> v
               | _ ->
                   Robust.fail ~subsystem:"serve.wal" ~operation
                     (Printf.sprintf "logged form %S array is not numeric" key))
             l)
    | _ ->
        Robust.fail ~subsystem:"serve.wal" ~operation
          (Printf.sprintf "logged form has no %S array" key)
  in
  Form.make ~mean:(num "mean") ~globals:(arr "g") ~pcs:(arr "p")
    ~rand:(num "rand")

(* The committed edits of a WAL whatif record and of the checkpoint:
   absolute forms by edge. *)
let edits_field edits =
  ( "edits",
    Json.Arr
      (List.map
         (fun (edge, f) ->
           Json.Obj [ ("edge", Json.Num (float_of_int edge)); ("form", form_json f) ])
         edits) )

let edits_of_json ~operation j =
  match Json.find "edits" j with
  | Some (Json.Arr items) ->
      List.map
        (fun ej ->
          let edge =
            match Json.find "edge" ej with
            | Some (Json.Num v) -> int_of_float v
            | _ ->
                Robust.fail ~subsystem:"serve.wal" ~operation
                  "logged edit has no numeric edge field"
          in
          let form =
            match Json.find "form" ej with
            | Some fj -> form_of_json ~operation fj
            | None ->
                Robust.fail ~subsystem:"serve.wal" ~operation
                  "logged edit has no form object"
          in
          (edge, form))
        items
  | _ ->
      Robust.fail ~subsystem:"serve.wal" ~operation "record has no edits array"

let parse_edit ~operation g forms idx j =
  match j with
  | Json.Obj _ ->
      let edge =
        match Json.num_field "edge" j with
        | Ok v -> int_of_float v
        | Error msg ->
            Robust.fail ~subsystem:"serve" ~operation ~indices:[ idx ] msg
      in
      if edge < 0 || edge >= Tgraph.n_edges g then
        Robust.fail ~subsystem:"serve" ~operation ~indices:[ idx; edge ]
          "edit edge index out of range";
      let prev = Form_buf.get forms edge in
      let next =
        match (Json.find "scale" j, Json.find "add" j, Json.find "set" j) with
        | Some (Json.Num a), None, None -> Form.scale a prev
        | None, Some (Json.Num d), None -> Form.add_const prev d
        | None, None, Some (Json.Num v) -> { prev with Form.mean = v }
        | None, None, None ->
            protocol_repair ~operation ~indices:[ idx; edge ]
              "edit has no scale/add/set field; treating as identity";
            prev
        | _ ->
            Robust.fail ~subsystem:"serve" ~operation ~indices:[ idx; edge ]
              "edit must carry exactly one numeric scale/add/set field"
      in
      { edge; prev; next }
  | _ ->
      Robust.fail ~subsystem:"serve" ~operation ~indices:[ idx ]
        "edits must be objects"

(* Apply [edits] to the session's packed forms and re-time.  Incremental
   mode recomputes only the fanout closure of the edited edges' sinks
   (Tgraph.fanout_closure_into + Propagate.forward_update_into) and is
   bit-identical to the full re-sweep; mode="full" runs the reference
   full sweep.  Returns (vertices recomputed, fanin edges visited). *)
let apply_edits s ~incremental edits =
  let g = s.build.Build.graph in
  List.iter (fun e -> Form_buf.set s.fbuf e.edge e.next) edits;
  if incremental then begin
    let seeds =
      Array.of_list (List.map (fun e -> g.Tgraph.dst.(e.edge)) edits)
    in
    let _marked = Tgraph.fanout_closure_into g ~seeds ~into:s.dirty in
    Propagate.forward_update_into s.ws g ~forms:s.fbuf
      ~sources:g.Tgraph.inputs ~dirty:s.dirty
  end
  else begin
    Propagate.forward_into s.ws g ~forms:s.fbuf ~sources:g.Tgraph.inputs;
    (Tgraph.n_vertices g, Tgraph.n_edges g)
  end

let op_whatif t j =
  let operation = "whatif" in
  let s = session_exn t ~operation in
  let yield = req_yield ~operation j in
  let commit = req_bool ~operation ~default:false "commit" j in
  let incremental =
    match req_str ~operation ~default:"incremental" "mode" j with
    | "incremental" -> true
    | "full" -> false
    | m ->
        protocol_repair ~operation
          (Printf.sprintf "mode %S is not incremental/full" m);
        true
  in
  let edits =
    match Json.find "edits" j with
    | Some (Json.Arr items) ->
        List.mapi (parse_edit ~operation s.build.Build.graph s.fbuf) items
    | _ ->
        Robust.fail ~subsystem:"serve" ~operation
          "whatif requires an \"edits\" array"
  in
  if edits = [] then
    Robust.fail ~subsystem:"serve" ~operation "whatif edits array is empty";
  Obs.incr (if incremental then c_whatif_incr else c_whatif_full);
  let n_dirty, n_visited = apply_edits s ~incremental edits in
  let reply =
    match design_delay_form s with
    | None -> Robust.fail ~subsystem:"serve" ~operation "no output reachable"
    | Some f ->
        delay_fields f ~yield
        @ [
            ("mode", Json.Str (if incremental then "incremental" else "full"));
            ("edits", Json.Num (float_of_int (List.length edits)));
            ("dirty_vertices", Json.Num (float_of_int n_dirty));
            ("visited_edges", Json.Num (float_of_int n_visited));
            ("committed", Json.Bool commit);
          ]
  in
  if commit then begin
    (* The committed diff is tracked as absolute forms: the WAL record
       and the checkpoint both replay [set this edge to exactly these
       coefficients], so recovery is independent of the edit operator
       (scale/add/set) that produced the form. *)
    List.iter (fun e -> Hashtbl.replace s.committed e.edge e.next) edits;
    t.pending_wal <-
      Some
        [
          ("kind", Json.Str "whatif");
          edits_field (List.map (fun e -> (e.edge, e.next)) edits);
        ]
  end
  else begin
    (* Roll back: restoring the previous forms is just another edit with
       the same dirty set, so the incremental update restores the sweep
       bit-identically. *)
    let undo = List.map (fun e -> { e with prev = e.next; next = e.prev }) edits in
    ignore (apply_edits s ~incremental:true undo)
  end;
  reply

(* Only committed edges differ from the pristine forms (a transient
   what-if rolls itself back), so a revert is one more edit: restore those
   slots and re-time their fanout closure, bit-identical to a full
   re-sweep like every incremental update. *)
let op_revert t =
  let s = session_exn t ~operation:"revert" in
  let edits =
    Hashtbl.fold
      (fun edge _ acc ->
        {
          edge;
          prev = Form_buf.get s.fbuf edge;
          next = Form_buf.get s.build.Build.forms edge;
        }
        :: acc)
      s.committed []
  in
  if edits <> [] then ignore (apply_edits s ~incremental:true edits);
  Hashtbl.reset s.committed;
  t.pending_wal <- Some [ ("kind", Json.Str "revert") ];
  [ ("design", Json.Str s.design); ("reverted", Json.Bool true) ]

let op_batch t j =
  let operation = "batch" in
  let s = session_exn t ~operation in
  let yield = req_yield ~operation j in
  let scenarios =
    match Json.find "scenarios" j with
    | Some sj -> Batch.scenarios_of_json sj
    | None ->
        Robust.fail ~subsystem:"serve" ~operation
          "batch requires a \"scenarios\" array"
  in
  let results = Batch.run (batch_base s) scenarios in
  let rows =
    Array.to_list results
    |> List.map (fun (r : Batch.result) ->
           Json.Obj (scenario_result_fields r ~yield))
  in
  [
    ("yield", Json.Num yield);
    ("scenarios", Json.Num (float_of_int (Array.length scenarios)));
    ("results", Json.Arr rows);
  ]

let op_stats t =
  let session_fields =
    match t.session with
    | None -> [ ("design", Json.Null) ]
    | Some s ->
        [
          ("design", Json.Str s.design);
          ("edited", Json.Bool (Hashtbl.length s.committed > 0));
          ( "n_edges",
            Json.Num (float_of_int (Tgraph.n_edges s.build.Build.graph)) );
        ]
  in
  session_fields
  @ [
      ("cache_size", Json.Num (float_of_int (Hashtbl.length t.cache)));
      ("requests", Json.Num (float_of_int (Obs.counter_value c_requests)));
      ("errors", Json.Num (float_of_int (Obs.counter_value c_errors)));
      ("cache_hits", Json.Num (float_of_int (Obs.counter_value c_cache_hits)));
      ( "cache_misses",
        Json.Num (float_of_int (Obs.counter_value c_cache_misses)) );
      ("durable", Json.Bool (t.store <> None));
      ( "cache_disk_hits",
        Json.Num (float_of_int (Obs.counter_value c_disk_hits)) );
      ("wal_records", Json.Num (float_of_int (Obs.counter_value c_wal_records)));
      ( "wal_bytes",
        Json.Num
          (float_of_int
             (match t.store with
             | Some st -> st.Store.wal_bytes
             | None -> 0)) );
      ("recoveries", Json.Num (float_of_int (Obs.counter_value c_recoveries)));
      ("shed", Json.Num (float_of_int (Obs.counter_value c_shed)));
      ("timeouts", Json.Num (float_of_int (Obs.counter_value c_timeouts)));
      ("max_queue", Json.Num (float_of_int t.max_queue));
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)

let error_json (c : Robust.context) =
  Json.Obj
    ([
      ("subsystem", Json.Str c.Robust.subsystem);
      ("operation", Json.Str c.Robust.operation);
      ("detail", Json.Str c.Robust.detail);
      ( "indices",
        Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) c.Robust.indices)
      );
      ("values", Json.Arr (List.map (fun v -> Json.Num v) c.Robust.values));
    ]
    @
    match c.Robust.pos with
    | None -> []
    | Some p ->
        [
          ("line", Json.Num (float_of_int p.Robust.line));
          ("col", Json.Num (float_of_int p.Robust.col));
        ])

let respond ~id fields = Json.to_string (Json.Obj (("id", id) :: fields))

(* A failed request's envelope; an expired deadline marks it a timeout. *)
let respond_error ~id c =
  Obs.incr c_errors;
  let timeout = c.Robust.subsystem = "deadline" in
  if timeout then Obs.incr c_timeouts;
  respond ~id
    ((("ok", Json.Bool false)
     :: (if timeout then [ ("timeout", Json.Bool true) ] else []))
    @ [ ("error", error_json c) ])

let request_id j = match Json.find "id" j with Some v -> v | None -> Json.Null

(* ---- durability plumbing ------------------------------------------ *)

(* Flush the full session spec (origin + committed-edit diff) and the
   exactly-once dedup pair into the checkpoint file, then truncate the
   WAL: recovery replay cost is bounded by the checkpoint cadence. *)
let checkpoint t =
  match t.store with
  | None -> ()
  | Some st ->
      let session_field =
        match t.session with
        | None -> Json.Null
        | Some s ->
            let edits =
              Hashtbl.fold (fun e f acc -> (e, f) :: acc) s.committed []
              |> List.sort (fun (a, _) (b, _) -> compare a b)
            in
            Json.Obj (origin_fields ~wal:false s.origin @ [ edits_field edits ])
      in
      let commit_fields =
        match t.last_commit with
        | None -> []
        | Some (req, resp) ->
            [ ("last_req", Json.Str req); ("last_resp", Json.Str resp) ]
      in
      ignore (Store.write_checkpoint st (("session", session_field) :: commit_fields))

(* Write-ahead contract: the record of a state-changing request becomes
   durable after the response is computed but *before* it is sent, so an
   acknowledged edit can never be lost - and an unacknowledged one is
   either absent from the log (the client re-sends, the replay re-applies)
   or present with its response (the dedup pair answers the re-send
   without double-applying). *)
let wal_append_pending t ~raw resp =
  match (t.pending_wal, t.store) with
  | Some fields, Some st ->
      t.pending_wal <- None;
      let digest = Digest.to_hex (Digest.string raw) in
      let fields =
        fields @ [ ("req", Json.Str digest); ("resp", Json.Str resp) ]
      in
      ignore (Store.append st fields);
      t.last_commit <- Some (digest, resp);
      Obs.incr c_wal_records;
      Obs.gauge_max g_wal_bytes st.Store.wal_bytes;
      if st.Store.records_since_ckpt >= st.Store.checkpoint_every then
        checkpoint t
  | _ -> t.pending_wal <- None

let dispatch t op j =
  match op with
  | "load" | "swap" -> op_load t ~op j
  | "load_files" -> op_load_files t j
  | "quantile" -> op_quantile t j
  | "report" -> op_report t j
  | "paths" -> op_paths t j
  | "whatif" -> op_whatif t j
  | "revert" -> op_revert t
  | "batch" -> op_batch t j
  | "stats" -> op_stats t
  | "ping" -> [ ("pong", Json.Bool true) ]
  | "shutdown" ->
      t.stop <- true;
      (* Flush the final checkpoint now, while the state is known-good:
         the daemon's exit path only closes the socket. *)
      checkpoint t;
      [ ("stopping", Json.Bool true) ]
  | other ->
      Robust.fail ~subsystem:"serve" ~operation:"dispatch"
        (Printf.sprintf
           "unknown op %S (load/swap/load_files/quantile/report/paths/\
            whatif/revert/batch/stats/ping/shutdown)"
           other)

let request_deadline_ms j =
  match Json.find "deadline_ms" j with
  | None | Some Json.Null -> None
  | Some (Json.Num v) when v >= 0.0 && Robust.is_finite v -> Some v
  | Some _ ->
      protocol_repair ~operation:"dispatch"
        "deadline_ms must be a non-negative number; ignored";
      None

(* The one request path: every line, alone or in a group, is answered
   here.  Parse failures, dedup, the deadline, the serve.op.<op> span,
   the WAL append and the exception-to-envelope mapping all live in this
   function. *)
let handle_line t line =
  Obs.incr c_requests;
  Obs.with_span "serve.request" @@ fun () ->
  match Json.parse line with
  | Error msg ->
      (* Under Strict the repair raises this same context. *)
      (try protocol_repair ~operation:"parse" msg with Robust.Error _ -> ());
      respond_error ~id:Json.Null
        (Robust.context ~subsystem:"serve" ~operation:"parse" msg)
  | Ok j -> (
      let id = request_id j in
      let op = match Json.str_field ~default:"" "op" j with Ok v -> v | Error _ -> "" in
      t.pending_wal <- None;
      match t.dedup with
      | Some (req_digest, resp)
        when String.equal req_digest (Digest.to_hex (Digest.string line)) ->
          (* Exactly-once across the crash window: the WAL logged this
             request (with its response) but the dead daemon never
             answered it, and recovery already replayed its effect.
             Answer the logged response without applying twice.  Relies
             on clients using unique request ids, which make the raw-line
             digest unique. *)
          t.dedup <- None;
          resp
      | _ -> (
          t.dedup <- None;
          try
            if op = "" then
              Robust.fail ~subsystem:"serve" ~operation:"dispatch"
                "request has no \"op\" field";
            let fields =
              Deadline.with_deadline_ms (request_deadline_ms j) (fun () ->
                  Deadline.check ~operation:op;
                  Obs.with_span ("serve.op." ^ op) (fun () -> dispatch t op j))
            in
            let resp =
              respond ~id (("ok", Json.Bool true) :: ("op", Json.Str op) :: fields)
            in
            wal_append_pending t ~raw:line resp;
            flush_spill t;
            resp
          with e ->
            t.pending_wal <- None;
            t.pending_spill <- None;
            respond_error ~id
              (match e with
              | Robust.Error c -> c
              | e ->
                  Robust.context ~subsystem:"serve"
                    ~operation:(if op = "" then "dispatch" else op)
                    ("unexpected exception: " ^ Printexc.to_string e))))

(* ---- recovery ------------------------------------------------------ *)

(* Replayed commits apply absolute forms through the same incremental
   update path a live commit uses; the incremental sweep is bit-identical
   to the full re-sweep (the pinned lib/serve invariant), so the
   recovered arrival state matches the uninterrupted run's exactly. *)
let apply_absolute_edits t ~operation edits =
  let s = session_exn t ~operation in
  let g = s.build.Build.graph in
  let eds =
    List.map
      (fun (edge, next) ->
        if edge < 0 || edge >= Tgraph.n_edges g then
          Robust.fail ~subsystem:"serve.wal" ~operation ~indices:[ edge ]
            "logged edit edge is out of range for the recovered design";
        { edge; prev = Form_buf.get s.fbuf edge; next })
      edits
  in
  if eds <> [] then begin
    ignore (apply_edits s ~incremental:true eds);
    List.iter (fun e -> Hashtbl.replace s.committed e.edge e.next) eds
  end

let record_dedup t ~req ~resp j =
  match (Json.find req j, Json.find resp j) with
  | Some (Json.Str d), Some (Json.Str r) -> t.last_commit <- Some (d, r)
  | _ -> ()

let apply_record t j =
  let operation = "replay" in
  (match Json.find "kind" j with
  | Some (Json.Str "whatif") ->
      apply_absolute_edits t ~operation (edits_of_json ~operation j)
  | Some (Json.Str "revert") ->
      if t.session <> None then begin
        ignore (op_revert t);
        t.pending_wal <- None
      end
  | _ -> ignore (load_origin ~replay:true t (origin_of_json ~wal:true ~operation j)));
  record_dedup t ~req:"req" ~resp:"resp" j

let restore_checkpoint t j =
  let operation = "checkpoint" in
  (match Json.find "session" j with
  | None | Some Json.Null -> ()
  | Some sj ->
      ignore (load_origin ~replay:true t (origin_of_json ~wal:false ~operation sj));
      apply_absolute_edits t ~operation (edits_of_json ~operation sj));
  record_dedup t ~req:"last_req" ~resp:"last_resp" j

(* Startup recovery: restore the checkpointed session, then replay every
   WAL record past the checkpoint sequence number.  Store.replay_wal has
   already truncated the log at the first torn/invalid record (or raised,
   under Strict); a well-framed record that fails to *apply* degrades to
   the prefix state through the same robust policy. *)
let recover t =
  match t.store with
  | None -> ()
  | Some st ->
      let ckpt = Store.read_checkpoint st in
      let records = Store.replay_wal st in
      let ckpt_seq = match ckpt with None -> 0 | Some (seq, _) -> seq in
      let tail = List.filter (fun (seq, _) -> seq > ckpt_seq) records in
      st.Store.wal_seq <- max st.Store.wal_seq ckpt_seq;
      if ckpt <> None || tail <> [] then begin
        Obs.with_span "serve.recover" (fun () ->
            (match ckpt with
            | None -> ()
            | Some (_, j) -> restore_checkpoint t j);
            try List.iter (fun (_, j) -> apply_record t j) tail
            with Robust.Error c -> Robust.repair Store.c_wal_truncated c);
        Obs.incr c_recoveries;
        t.dedup <- t.last_commit
      end

let create ?cache_dir ?max_queue ?checkpoint_every () =
  let t = make ?cache_dir ?max_queue ?checkpoint_every () in
  recover t;
  t

(* ---- admission ---------------------------------------------------- *)

(* Load shedding: a structured refusal, not a dropped connection.  The
   retry-after hint is the queue bound times the smoothed per-request
   service time - roughly how long the backlog ahead of a retry needs. *)
let overloaded_response t line =
  Obs.incr c_shed;
  let id =
    match Json.parse line with Ok j -> request_id j | Error _ -> Json.Null
  in
  let retry_after =
    Float.ceil (Float.max 1.0 (float_of_int t.max_queue *. t.ewma_ms))
  in
  respond ~id
    [
      ("ok", Json.Bool false);
      ("overloaded", Json.Bool true);
      ("retry_after_ms", Json.Num retry_after);
      ( "error",
        error_json
          (Robust.context ~subsystem:"serve" ~operation:"admission"
             ~indices:[ t.max_queue ]
             "pending-request queue is full; request shed") );
    ]

let handle_lines t lines =
  let n = List.length lines in
  Obs.gauge_max g_queue_depth n;
  (* Bounded admission: everything past the queue cap is shed up front
     with a structured overloaded response (responses stay in request
     order - the shed tail is the newest work). *)
  let accepted = List.filteri (fun i _ -> i < t.max_queue) lines in
  let shed = List.filteri (fun i _ -> i >= t.max_queue) lines in
  let t0 = Unix.gettimeofday () in
  let responses = List.map (handle_line t) accepted in
  (match accepted with
  | [] -> ()
  | _ ->
      let per_ms =
        (Unix.gettimeofday () -. t0)
        *. 1000.0
        /. float_of_int (List.length accepted)
      in
      t.ewma_ms <- (0.8 *. t.ewma_ms) +. (0.2 *. per_ms));
  responses @ List.map (overloaded_response t) shed

let session_state t = Option.map (fun s -> (s.build, s.fbuf, s.ws)) t.session

(* ------------------------------------------------------------------ *)
(* Daemon: unix-domain socket, JSONL framing                          *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Read whatever is available, split into complete lines.  Lines that
   arrive together in one read are handed to [handle_lines] as a group,
   which admits, answers in order and writes them back in one write;
   each line is still answered alone, so grouping never changes a
   response byte. *)
let serve_connection t fd =
  let pending = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let extract_lines () =
    let s = Buffer.contents pending in
    let rec split acc start =
      match String.index_from_opt s start '\n' with
      | None ->
          Buffer.clear pending;
          Buffer.add_substring pending s start (String.length s - start);
          List.rev acc
      | Some i -> split (String.sub s start (i - start) :: acc) (i + 1)
    in
    split [] 0
  in
  let eof = ref false in
  while (not !eof) && not t.stop do
    (* EINTR means a SIGTERM/SIGINT drain request arrived mid-read: all
       previously received requests have already been answered (groups
       are handled and written before the next read), so re-checking
       [t.stop] here completes the drain without dropping anything. *)
    let n =
      try Unix.read fd chunk 0 (Bytes.length chunk)
      with Unix.Unix_error (Unix.EINTR, _, _) -> if t.stop then 0 else -1
    in
    let lines =
      if n = 0 then begin
        eof := true;
        (* A final unterminated line still counts as a request. *)
        let line = Buffer.contents pending in
        Buffer.clear pending;
        [ line ]
      end
      else if n > 0 then begin
        Buffer.add_subbytes pending chunk 0 n;
        extract_lines ()
      end
      else []
    in
    match List.filter (fun l -> String.trim l <> "") lines with
    | [] -> ()
    | lines ->
        let responses = handle_lines t lines in
        write_all fd (String.concat "\n" responses ^ "\n");
        (* The "request" crash point counts *answered* requests: it
           fires only after the response bytes reached the socket. *)
        List.iter (fun _ -> Crash.tick "request") responses
  done

(* The daemon exits 0 on graceful shutdown: either a {"op":"shutdown"}
   request (which flushed a final checkpoint in dispatch) or SIGTERM /
   SIGINT, which set the stop flag, let the in-flight request group
   finish, flush a final checkpoint and close + remove the socket. *)
let run_daemon ?(socket = "hssta.sock") ?(preload = []) t =
  let drain = Sys.Signal_handle (fun _ -> t.stop <- true) in
  (try Sys.set_signal Sys.sigterm drain with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint drain with Invalid_argument _ | Sys_error _ -> ());
  List.iter
    (fun name ->
      let nl = netlist_of_name name in
      ignore (characterize_cached t nl);
      flush_spill t)
    preload;
  if Sys.file_exists socket then Sys.remove socket;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      checkpoint t;
      (match t.store with Some st -> Store.close st | None -> ());
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX socket);
      Unix.listen sock 8;
      while not t.stop do
        match Unix.accept sock with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | fd, _ ->
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                try serve_connection t fd
                with Unix.Unix_error _ -> (* client went away mid-stream *) ())
      done)

(* ------------------------------------------------------------------ *)
(* Replay client                                                      *)

let connect_retry socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        go ()
  in
  go ()

type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let rec read_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)
  | None -> (
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> if s = "" then None else (Buffer.clear r.buf; Some s)
      | n ->
          Buffer.add_subbytes r.buf r.chunk 0 n;
          read_line r)

(* [f ()], or None once the daemon is gone: a broken, reset or refused
   connection reads like the end of the stream. *)
let unless_gone f =
  try f ()
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNREFUSED), _, _) ->
    None

(* The request corpus of a replay: one request per non-blank line. *)
let read_corpus path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")

(* [retry] > 0 re-sends a request answered with a structured overloaded
   response up to that many times, sleeping a seeded exponential backoff
   with jitter between attempts: delay_k = hint * 2^k * (0.5 + U[0,1)),
   where hint is the server's retry_after_ms (25 ms when absent).  Only
   meaningful in sequential mode; a pipelined replay sends everything up
   front, so there is nothing left to pace.  Either mode stops at the
   first request the daemon leaves unanswered and returns its index. *)
let replay ?(pipeline = false) ?(retry = 0) ?(retry_seed = 42) ~socket
    ~requests () =
  (* A daemon that dies mid-replay must surface as a closed connection,
     not as a SIGPIPE death of the client. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fd = connect_retry socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let r = reader fd in
      let t0 = Unix.gettimeofday () in
      let responses, lat =
        if pipeline then begin
          ignore
            (unless_gone (fun () ->
                 write_all fd (String.concat "\n" requests ^ "\n");
                 Unix.shutdown fd Unix.SHUTDOWN_SEND;
                 None));
          let rec drain acc =
            match unless_gone (fun () -> read_line r) with
            | Some line -> drain (line :: acc)
            | None -> acc
          in
          (List.rev (drain []), [||])
        end
        else begin
          let rng = Rng.create ~seed:retry_seed in
          let overload_hint resp =
            match Json.parse resp with
            | Error _ -> None
            | Ok j -> (
                match Json.find "overloaded" j with
                | Some (Json.Bool true) -> (
                    match Json.find "retry_after_ms" j with
                    | Some (Json.Num ms) when ms > 0.0 -> Some ms
                    | _ -> Some 25.0)
                | _ -> None)
          in
          let rec attempt req k =
            match
              unless_gone (fun () ->
                  write_all fd (req ^ "\n");
                  read_line r)
            with
            | None -> None
            | Some resp -> (
                match overload_hint resp with
                | Some hint when k < retry ->
                    let backoff =
                      hint *. Float.pow 2.0 (float_of_int k) *. (0.5 +. Rng.uniform rng)
                    in
                    Unix.sleepf (backoff /. 1000.0);
                    attempt req (k + 1)
                | _ -> Some resp)
          in
          let rec go acc lat = function
            | [] -> (List.rev acc, Array.of_list (List.rev lat))
            | req :: rest -> (
                let s = Unix.gettimeofday () in
                match attempt req 0 with
                | Some resp -> go (resp :: acc) ((Unix.gettimeofday () -. s) :: lat) rest
                | None -> go acc lat [] (* the daemon is gone: stop here *))
          in
          go [] [] requests
        end
      in
      let answered = List.length responses in
      ( responses,
        lat,
        Unix.gettimeofday () -. t0,
        if answered < List.length requests then Some answered else None ))
