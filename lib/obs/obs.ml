(* Observability core.  See obs.mli for the contract; the implementation
   notes here are about the disabled-mode cost model and domain safety.

   Disabled mode: [enabled_flag] is a plain bool ref.  Every entry point
   loads it and branches before doing anything else; in particular
   [with_span] tail-calls [f ()] and [add]/[gauge_max] return without a
   single allocation or atomic operation.  The flag is only toggled
   between parallel regions (CLI startup, bench/test setup), so a plain
   ref is race-free in practice and costs one load - an Atomic would put
   a fence in every kernel call for a property we do not need.

   Enabled mode: counters and gauges are int Atomics updated lock-free;
   the registry tables, span aggregates, and the trace channel share one
   mutex.  Span begin/end events from worker domains interleave in the
   trace, but each line is written atomically and tagged with its domain
   id, so per-domain nesting is preserved (test_obs.ml checks balance). *)

type counter = { c_name : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_hw : int Atomic.t }

type span_stats = {
  count : int;
  seconds : float;
  minor_words : float;
  major_words : float;
}

type agg = {
  mutable a_count : int;
  mutable a_seconds : float;
  mutable a_minor : float;
  mutable a_major : float;
}

type span = {
  sp_name : string;
  sp_t0 : float;
  sp_minor0 : float;
  sp_major0 : float;
}

let enabled_flag = ref false
let lock = Mutex.create ()
let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 8
let spans_tbl : (string, agg) Hashtbl.t = Hashtbl.create 32
let trace_chan : out_channel option ref = ref None
let trace_epoch = ref 0.0

let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false
let set_enabled b = enabled_flag := b

let now () = Unix.gettimeofday ()
let dom_id () = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* Trace sink                                                          *)
(* ------------------------------------------------------------------ *)

(* Callers hold [lock]. *)
let emit_line_locked line =
  match !trace_chan with
  | None -> ()
  | Some oc ->
      output_string oc line;
      output_char oc '\n'

let emit_line line =
  Mutex.protect lock (fun () -> emit_line_locked line)

(* Span/counter names are ASCII identifiers chosen by this codebase; %S
   escaping coincides with JSON escaping for them. *)
let emit_begin name =
  if !trace_chan != None then
    emit_line
      (Printf.sprintf {|{"ev":"B","name":%S,"dom":%d,"t":%.6f}|} name
         (dom_id ())
         (now () -. !trace_epoch))

let emit_end name dur minor major =
  if !trace_chan != None then
    emit_line
      (Printf.sprintf
         {|{"ev":"E","name":%S,"dom":%d,"t":%.6f,"dur_s":%.6f,"minor_w":%.0f,"major_w":%.0f}|}
         name (dom_id ())
         (now () -. !trace_epoch)
         dur minor major)

let flush_trace () =
  Mutex.protect lock (fun () ->
      match !trace_chan with
      | None -> ()
      | Some oc ->
          let names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
          List.iter
            (fun n ->
              let c = Hashtbl.find counters_tbl n in
              emit_line_locked
                (Printf.sprintf {|{"ev":"C","name":%S,"v":%d}|} n
                   (Atomic.get c.c_v)))
            (List.sort compare (names counters_tbl));
          List.iter
            (fun n ->
              let g = Hashtbl.find gauges_tbl n in
              emit_line_locked
                (Printf.sprintf {|{"ev":"G","name":%S,"v":%d}|} n
                   (Atomic.get g.g_hw)))
            (List.sort compare (names gauges_tbl));
          flush oc)

let detach_locked () =
  match !trace_chan with
  | None -> ()
  | Some oc ->
      trace_chan := None;
      flush oc;
      close_out_noerr oc

let close_trace () =
  flush_trace ();
  Mutex.protect lock (fun () -> detach_locked ())

let at_exit_registered = ref false

let trace_to_file path =
  let oc = open_out path in
  Mutex.protect lock (fun () ->
      detach_locked ();
      trace_epoch := now ();
      trace_chan := Some oc;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit close_trace
      end)

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_v = Atomic.make 0 } in
          Hashtbl.add counters_tbl name c;
          c)

let add c n =
  if !enabled_flag && n <> 0 then
    ignore (Atomic.fetch_and_add c.c_v n : int)

let incr c = add c 1
let counter_value c = Atomic.get c.c_v

let gauge name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt gauges_tbl name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_hw = Atomic.make 0 } in
          Hashtbl.add gauges_tbl name g;
          g)

let gauge_max g n =
  if !enabled_flag then begin
    let rec raise_to () =
      let cur = Atomic.get g.g_hw in
      if n > cur && not (Atomic.compare_and_set g.g_hw cur n) then raise_to ()
    in
    raise_to ()
  end

let gauge_value g = Atomic.get g.g_hw

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let no_span = { sp_name = ""; sp_t0 = 0.0; sp_minor0 = 0.0; sp_major0 = 0.0 }

let span_begin name =
  if not !enabled_flag then no_span
  else begin
    emit_begin name;
    let g = Gc.quick_stat () in
    { sp_name = name; sp_t0 = now (); sp_minor0 = g.Gc.minor_words;
      sp_major0 = g.Gc.major_words }
  end

let span_end sp =
  if !enabled_flag && sp != no_span then begin
    let dur = Float.max 0.0 (now () -. sp.sp_t0) in
    let g = Gc.quick_stat () in
    let minor = Float.max 0.0 (g.Gc.minor_words -. sp.sp_minor0) in
    let major = Float.max 0.0 (g.Gc.major_words -. sp.sp_major0) in
    Mutex.protect lock (fun () ->
        let a =
          match Hashtbl.find_opt spans_tbl sp.sp_name with
          | Some a -> a
          | None ->
              let a =
                { a_count = 0; a_seconds = 0.0; a_minor = 0.0; a_major = 0.0 }
              in
              Hashtbl.add spans_tbl sp.sp_name a;
              a
        in
        a.a_count <- a.a_count + 1;
        a.a_seconds <- a.a_seconds +. dur;
        a.a_minor <- a.a_minor +. minor;
        a.a_major <- a.a_major +. major);
    emit_end sp.sp_name dur minor major
  end

let with_span name f =
  if not !enabled_flag then f ()
  else begin
    let sp = span_begin name in
    match f () with
    | v ->
        span_end sp;
        v
    | exception e ->
        span_end sp;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Aggregated views                                                    *)
(* ------------------------------------------------------------------ *)

let sorted_alist tbl value =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters () = sorted_alist counters_tbl (fun c -> Atomic.get c.c_v)
let gauges () = sorted_alist gauges_tbl (fun g -> Atomic.get g.g_hw)

let spans () =
  sorted_alist spans_tbl (fun a ->
      { count = a.a_count; seconds = a.a_seconds; minor_words = a.a_minor;
        major_words = a.a_major })

let span_seconds name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt spans_tbl name with
      | Some a -> a.a_seconds
      | None -> 0.0)

let find_counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> Atomic.get c.c_v
      | None -> 0)

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_v 0) counters_tbl;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_hw 0) gauges_tbl;
      Hashtbl.reset spans_tbl)

let pp ppf () =
  let sp = spans () and cs = counters () and gs = gauges () in
  Format.fprintf ppf "@[<v>";
  if sp <> [] then begin
    Format.fprintf ppf "%-32s %6s %10s %12s %12s@," "span" "count" "seconds"
      "minor words" "major words";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf "%-32s %6d %10.4f %12.0f %12.0f@," name s.count
          s.seconds s.minor_words s.major_words)
      sp
  end;
  let nonzero = List.filter (fun (_, v) -> v <> 0) cs in
  if nonzero <> [] then begin
    Format.fprintf ppf "%-32s %16s@," "counter" "value";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "%-32s %16d@," name v)
      nonzero
  end;
  let gz = List.filter (fun (_, v) -> v <> 0) gs in
  if gz <> [] then begin
    Format.fprintf ppf "%-32s %16s@," "gauge (high water)" "value";
    List.iter (fun (name, v) -> Format.fprintf ppf "%-32s %16d@," name v) gz
  end;
  Format.fprintf ppf "@]"

(* OBS_TRACE: any binary linking this library honors the env var. *)
let () =
  match Sys.getenv_opt "OBS_TRACE" with
  | Some path when String.trim path <> "" ->
      trace_to_file (String.trim path);
      enable ()
  | _ -> ()
