(* Helpers shared by the four workloads: set-up timing, the op loop,
   output checks, goldens and process measurements. *)

module H = Hier_ssta
module Trace = Ledger.Trace
module Stats = Ledger.Stats

let now = Unix.gettimeofday

type memory = { rss_mb : float; top_heap_mb : float }

(* What a workload run hands back to the runner.  [e2e] holds op_p50_ms,
   op_tail_ms and ops_per_s: from the untraced ops in an untraced run,
   from all ops in a traced one. *)
type result = {
  setup_s : float;
  memory : memory;
  attempted : int;  (** timed runs: parts (circuits) or requests *)
  e2e : (string * float) list;
  traced_ops : int;
  per_op : (string * float) list;
      (** root span name -> traced ops it stands for: an Obs counter
          harvested under root [r] counts [1 / per_op r] towards one op *)
  overhead_pct : float;  (** traced over untraced op time, - 1 *)
  gc_alloc_mb : float;  (** allocated by the main domain in the timed phase *)
  gc_majors : int;  (** major collections in the timed phase *)
  layer : (string * float) list;  (** workload-specific per-layer values *)
}

(* ---- failures --------------------------------------------------------- *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %s\n%!" msg)
    fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

(* ---- set-up ------------------------------------------------------------ *)

(* Set-up is short (0.06-0.8 s), and the machine runs in fast and slow
   phases lasting seconds to a minute (README, Findings): repetitions
   made back to back land in one phase, so their median jumps by up to
   1.8x from run to run, and so does the median of repetitions spread
   over a run when the slow phase holds half of it.  Set-up is therefore
   repeated a few times before the timed phase, again between its runs
   ([setup_between]) and at the end ([setup_s]), and setup_s is the
   fastest repetition: the set-up's cost when nothing else slowed it,
   which work moved into set-up still raises. *)
type 'a setup = {
  make : unit -> 'a;
  mutable times : float list;  (** seconds per repetition *)
  mutable alloc_mb : float;  (** allocated by [setup_between]'s repetitions *)
  mutable majors : int;  (** major collections they caused *)
}

let setup_first_reps = 3

(* Share of the wall clock since a phase began that set-up repetitions
   between its runs may take. *)
let setup_share = 0.1

let setup_rep s =
  Gc.full_major ();
  let t0 = now () in
  let v = s.make () in
  s.times <- (now () -. t0) :: s.times;
  v

(* Runs [f] [setup_first_reps] times and keeps the last result.  The
   previous result is dropped first, so two never coexist and the peak
   resident set does not depend on when the GC got to it. *)
let setup f =
  let s = { make = f; times = []; alloc_mb = 0.0; majors = 0 } in
  let last = ref None in
  for _ = 1 to setup_first_reps do
    last := None;
    last := Some (setup_rep s)
  done;
  (Option.get !last, s)

let gc_snapshot () = (Gc.allocated_bytes (), (Gc.quick_stat ()).Gc.major_collections)

(* Repeats set-up, its result dropped, while repetitions have taken less
   than [setup_share] of the time since [t_start]; [spent] is the time
   they have taken so far.  The repetition's garbage is collected before
   the caller goes on, and its allocation is kept apart from the runs'.
   The workload's state stays live meanwhile, so callers run it where it
   cannot raise the peak resident set they report. *)
let setup_between s ~t_start ~spent =
  if !spent < setup_share *. (now () -. t_start) then begin
    let t0 = now () in
    let a0, m0 = gc_snapshot () in
    ignore (Sys.opaque_identity (setup_rep s));
    Gc.full_major ();
    let a1, m1 = gc_snapshot () in
    s.alloc_mb <- s.alloc_mb +. ((a1 -. a0) /. 1e6);
    s.majors <- s.majors + (m1 - m0);
    spent := !spent +. (now () -. t0)
  end

let setup_min_reps = 10

(* setup_s, once the run is over: the repetitions are topped up to
   [setup_min_reps] (results dropped), so a run whose timed phase left
   little room for them still has as many, the last at its very end. *)
let setup_s s =
  while List.length s.times < setup_min_reps do
    ignore (Sys.opaque_identity (setup_rep s))
  done;
  List.fold_left Float.min infinity s.times

(* ---- process measurements ---------------------------------------------- *)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Peak resident set (VmHWM) and the GC's peak major heap, in MB. *)
let memory () =
  let from_status =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> None
    | s ->
        List.find_map
          (fun l ->
            if String.starts_with ~prefix:"VmHWM:" l then
              Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %f kB"
                (fun kb -> kb /. 1024.0)
            else None)
          (String.split_on_char '\n' s)
  in
  let heap = top_heap_mb () in
  { rss_mb = Option.value ~default:heap from_status; top_heap_mb = heap }

(* ---- the timed phase -------------------------------------------------- *)

(* An op is one run of each of a workload's parts: the ten circuits of
   iscas-extract, the single pass or round of the others.  Times are kept
   per part, in run order. *)
type ops = {
  names : string array;  (** per part: the root span its runs are timed under *)
  untraced : float array array;
  traced : float array array;
  alloc_mb : float;
  majors : int;
  memory : memory;  (** read at the end of the first pass *)
}

(* Share of the budget that short parts may still use once the first
   pass, which every part runs, has overrun the budget. *)
let grace = 0.05

(* Runs [op p] for the parts [p] of [names] in passes until [seconds] have
   passed, timing each run under a root span named after its part;
   [after p] runs untimed after each run (output checks).  Every part runs
   in the first pass.  Later passes run a part only while its previous
   time fits in the time left, so a long part cannot overrun the budget
   by its whole length and short parts fill the rest.  The time left runs
   to the budget's end or the first pass's, whichever is later, plus the
   grace.  In a traced run each part's runs alternate traced and
   untraced, starting traced, so every part is traced at least once;
   parts that run again also yield the tracing overhead.

   Before every run but the first, set-up [s] may repeat
   (setup_between), untimed.  The peak resident set is read when the
   first pass ends: every part has run, so the op's peak is in it, and
   the only repetitions before it ran between the parts of a multi-part
   op (iscas-extract, where the largest part's own peak dwarfs them). *)
let loop ~seconds ~trace ~names ~setup:(s : _ setup) ?(after = fun _ -> ()) op =
  let parts = Array.length names in
  let t_start = now () in
  let t_end = ref (t_start +. seconds) in
  let untraced = Array.make parts [] and traced = Array.make parts [] in
  let last = Array.make parts 0.0 in
  let a0, m0 = gc_snapshot () in
  let s_alloc0 = s.alloc_mb and s_majors0 = s.majors and spent = ref 0.0 in
  let first_pass = ref true and ran = ref true and mem = ref None in
  while !ran do
    ran := false;
    for p = 0 to parts - 1 do
      let left = !t_end -. now () in
      if !first_pass || last.(p) <= left then begin
        if !ran || not !first_pass then setup_between s ~t_start ~spent;
        ran := true;
        let tr = trace && List.length traced.(p) <= List.length untraced.(p) in
        Trace.set_enabled tr;
        let t0 = now () in
        (match Trace.span names.(p) (fun () -> op p) with
        | () -> ()
        | exception e -> fail "%s raised %s" names.(p) (Printexc.to_string e));
        let dt = now () -. t0 in
        Trace.set_enabled false;
        last.(p) <- dt;
        if tr then traced.(p) <- dt :: traced.(p) else untraced.(p) <- dt :: untraced.(p);
        after p
      end
    done;
    if !first_pass then begin
      mem := Some (memory ());
      t_end := Float.max !t_end (now ()) +. (grace *. seconds)
    end;
    first_pass := false
  done;
  let a1, m1 = gc_snapshot () in
  let arr l = Array.of_list (List.rev l) in
  {
    names;
    untraced = Array.map arr untraced;
    traced = Array.map arr traced;
    alloc_mb = ((a1 -. a0) /. 1e6) -. (s.alloc_mb -. s_alloc0);
    majors = m1 - m0 - (s.majors - s_majors0);
    memory = Option.get !mem;
  }

let sum = Array.fold_left ( +. ) 0.0

(* Total seconds of the recorded bench spans named [name]. *)
let span_seconds name =
  List.fold_left
    (fun acc (s : Trace.span) ->
      if s.Trace.name = name then acc +. Trace.duration s else acc)
    0.0 !Trace.spans

(* MB of design text per second of Design.parse over the traced runs. *)
let parse_mb_per_s ~traced_bytes =
  let s = span_seconds "frontend.parse" in
  if s > 0.0 then float_of_int traced_bytes /. s /. 1e6 else 0.0

(* op_p50_ms, op_tail_ms and ops_per_s.  [kinds] pairs each kind of run
   with its weight, how many of it one op holds, and its times in seconds
   (Stats.by_kind).  op_p50_ms is the weighted sum of the kinds' medians
   and ops_per_s the inverse of the weighted sum of their means; with one
   kind of weight 1 they are the plain median and throughput.  op_tail_ms
   is the tail of [whole], the times of whole ops (Stats.tail), once
   there are 20; below that it repeats op_p50_ms. *)
let e2e_of_kinds ~kinds ~whole =
  let p50, mean = Stats.by_kind kinds in
  [
    ("op_p50_ms", 1000.0 *. p50);
    ( "op_tail_ms",
      1000.0 *. (if Array.length whole >= 20 then snd (Stats.tail whole) else p50) );
    ("ops_per_s", 1.0 /. mean);
  ]

(* Tracing overhead in percent: the weighted medians of traced over
   untraced runs.  Each kind's first traced run is its coldest and is left
   out, so only kinds with two traced runs and an untraced one count; 0
   when there are none. *)
let overhead_pct kinds =
  let both = List.filter (fun (_, u, t) -> u <> [||] && Array.length t >= 2) kinds in
  let warm t = Array.sub t 1 (Array.length t - 1) in
  if both = [] then 0.0
  else
    let traced, _ = Stats.by_kind (List.map (fun (w, _, t) -> (w, warm t)) both) in
    let untraced, _ = Stats.by_kind (List.map (fun (w, u, _) -> (w, u)) both) in
    100.0 *. ((traced /. untraced) -. 1.0)

(* Every part weighs 1: an op is one run of each. *)
let finish ~trace ~setup ~(ops : ops) ~layer =
  let n a = Array.fold_left (fun acc t -> acc + Array.length t) 0 a in
  let times = if trace then Array.map2 Array.append ops.untraced ops.traced else ops.untraced in
  {
    setup_s = setup_s setup;
    memory = ops.memory;
    attempted = n ops.untraced + n ops.traced;
    e2e =
      e2e_of_kinds
        ~kinds:(Array.to_list (Array.map (fun t -> (1.0, t)) times))
        ~whole:(if Array.length times = 1 then times.(0) else [||]);
    traced_ops = n ops.traced;
    per_op =
      Array.to_list
        (Array.map2 (fun name t -> (name, float_of_int (Array.length t))) ops.names ops.traced);
    overhead_pct =
      overhead_pct
        (Array.to_list (Array.map2 (fun u t -> (1.0, u, t)) ops.untraced ops.traced));
    gc_alloc_mb = ops.alloc_mb;
    gc_majors = ops.majors;
    layer;
  }

(* ---- models and goldens ----------------------------------------------- *)

(* Digest of a model file with the stats line's trailing wall-clock field
   zeroed: the only bytes that legitimately differ between two runs. *)
let model_digest text =
  String.split_on_char '\n' text
  |> List.map (fun l ->
         if String.starts_with ~prefix:"stats " l then
           match String.rindex_opt l ' ' with
           | Some i -> String.sub l 0 i ^ " 0"
           | None -> l
         else l)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let golden_dir = Filename.concat "bench" (Filename.concat "ledger" "golden")

(* Non-comment lines of a golden file, split on blanks. *)
let golden_rows file =
  let path = Filename.concat golden_dir file in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e ->
      fail "golden file unreadable: %s" e;
      []
  | s ->
      String.split_on_char '\n' s
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.map (fun l -> String.split_on_char ' ' l |> List.filter (( <> ) ""))

type golden_model = { orig : int; edges : int; evals : int; digest : string }

let golden_models =
  lazy
    (List.filter_map
       (function
         | [ name; orig; edges; evals; digest ] ->
             Some
               ( name,
                 {
                   orig = int_of_string orig;
                   edges = int_of_string edges;
                   evals = int_of_string evals;
                   digest;
                 } )
         | _ -> None)
       (golden_rows "models.txt"))

let golden_value key =
  List.find_map
    (function [ k; v ] when k = key -> Some v | _ -> None)
    (golden_rows "values.txt")

(* Checks one extracted model against its golden row. *)
let check_model ~key (m : H.Timing_model.t) text =
  let st = m.H.Timing_model.stats in
  match List.assoc_opt key (Lazy.force golden_models) with
  | None ->
      (* prints the row a golden update would add *)
      fail "no golden model row; observed: %s %d %d %d %s" key
        st.H.Timing_model.original_edges st.H.Timing_model.model_edges
        st.H.Timing_model.exact_evals (model_digest text)
  | Some g ->
      check
        (st.H.Timing_model.original_edges = g.orig
        && st.H.Timing_model.model_edges = g.edges
        && st.H.Timing_model.exact_evals = g.evals)
        "%s: %d -> %d edges with %d exact evals, golden %d -> %d with %d" key
        st.H.Timing_model.original_edges st.H.Timing_model.model_edges
        st.H.Timing_model.exact_evals g.orig g.edges g.evals;
      let d = model_digest text in
      check (d = g.digest) "%s: model digest %s, golden %s" key d g.digest

(* Largest relative error of the model's IO delay matrix against a Monte
   Carlo reference (Table I's merr/verr). *)
let io_errors (io : Ssta_canonical.Form.t option array array)
    (mc : Ssta_mc.Allpairs_mc.result) =
  let merr = ref 0.0 and verr = ref 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j f ->
          match f with
          | Some f when mc.Ssta_mc.Allpairs_mc.reachable.(i).(j) ->
              let mm = mc.Ssta_mc.Allpairs_mc.means.(i).(j)
              and ms = mc.Ssta_mc.Allpairs_mc.stds.(i).(j) in
              (* zero moments (zero-delay feedthroughs) carry no timing *)
              if mm <> 0.0 then
                merr :=
                  Float.max !merr
                    (Float.abs (f.Ssta_canonical.Form.mean -. mm) /. mm);
              if ms <> 0.0 then
                verr :=
                  Float.max !verr
                    (Float.abs (Ssta_canonical.Form.std f -. ms) /. ms)
          | _ -> ())
        row)
    io;
  (!merr, !verr)
