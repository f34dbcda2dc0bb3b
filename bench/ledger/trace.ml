(* Bench-side tracing.  The benchmark records a span around each call it
   makes into a layer (name, start, end, parent); spans that wrap a call
   into Extract, Hier_analysis, Design_grid or Serve also harvest the
   [Obs] span seconds and counter deltas the library emitted inside them.
   Everything stays in memory and is written as JSONL when the run ends.

   Recording is off by default; [set_enabled] switches bench spans and
   [Obs] together, so an untraced op pays neither. *)

module Obs = Ssta_obs.Obs

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start : float;
  stop : float;
  req : int;  (** request id, -1 when the span is not one request *)
  reqs : int list;  (** for a request group: the requests it answered *)
  obs : (string * float) list;  (** harvested Obs span seconds *)
  counters : (string * int) list;  (** harvested Obs counter deltas *)
}

(* One open-loop request: due time, when its group started, when it was
   answered.  Requests overlap their group rather than nest in it, so they
   are kept apart from the span tree. *)
type request = { rid : int; group : int; due : float; served : float; done_ : float }

let enabled = ref false
let spans : span list ref = ref []
let requests : request list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let set_enabled b =
  enabled := b;
  Obs.set_enabled b

let reset () =
  spans := [];
  requests := [];
  stack := [];
  next_id := 0

let duration s = s.stop -. s.start

(* [Obs] spans the self-time arithmetic attributes, with the [Obs] span
   that encloses each.  All are opened by the calling domain; spans opened
   inside worker domains (batch.scenario, mc.*.chunk) would sum to more
   than the wall clock they cover, so they are left out. *)
let obs_layers =
  [
    ("build.characterize", None);
    ("extract.criticality", None);
    ("criticality.backward", Some "extract.criticality");
    ("criticality.screen", Some "extract.criticality");
    ("extract.reduce", None);
    ("extract.freeze", None);
    ("extract.output_load", None);
    ("design_grid.build", None);
    ("design_grid.pca", Some "design_grid.build");
    ("hier.setup", None);
    ("replace.transform_instance", Some "hier.setup");
    ("replace.matrix", Some "replace.transform_instance");
    ("hier.propagate", None);
    ("batch.run", None);
    ("serve.request", None);
  ]

let obs_parent name =
  if String.starts_with ~prefix:"serve.op." name then Some "serve.request"
  else match List.assoc_opt name obs_layers with Some p -> p | None -> None

let attributed name =
  String.starts_with ~prefix:"serve.op." name || List.mem_assoc name obs_layers

let obs_seconds () =
  List.filter_map
    (fun (n, (st : Obs.span_stats)) ->
      if attributed n then Some (n, st.Obs.seconds) else None)
    (Obs.spans ())

let deltas sub nonzero before after =
  List.filter_map
    (fun (n, v) ->
      let d = match List.assoc_opt n before with Some v0 -> sub v v0 | None -> v in
      if nonzero d then Some (n, d) else None)
    after

let current_parent () = match !stack with p :: _ -> p | [] -> -1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* [span name f] runs [f] inside a span.  With [~harvest:true] the Obs
   spans and counters that complete inside are attached to it; only leaf
   spans harvest, so no Obs second is attributed twice. *)
let span ?(req = -1) ?(reqs = []) ?(harvest = false) name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current_parent () in
    stack := id :: !stack;
    let before =
      if harvest then Some (obs_seconds (), Obs.counters ()) else None
    in
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        stack := (match !stack with _ :: tl -> tl | [] -> []);
        let obs, counters =
          match before with
          | None -> ([], [])
          | Some (s0, c0) ->
              ( deltas ( -. ) (fun d -> d > 0.0) s0 (obs_seconds ()),
                deltas ( - ) (fun d -> d <> 0) c0 (Obs.counters ()) )
        in
        spans :=
          { id; parent; name; start; stop; req; reqs; obs; counters } :: !spans)
  end

(* A span measured by the caller (e.g. the open-loop generator's idle
   wait), under the current parent. *)
let add name ~start ~stop =
  if !enabled then
    spans :=
      {
        id = fresh_id ();
        parent = current_parent ();
        name;
        start;
        stop;
        req = -1;
        reqs = [];
        obs = [];
        counters = [];
      }
      :: !spans

let add_request ~rid ~group ~due ~served ~done_ =
  if !enabled then requests := { rid; group; due; served; done_ } :: !requests

(* The id the next span will get: lets a caller name the group span its
   requests belong to before opening it. *)
let peek_id () = !next_id

(* Self time per layer name: a span's duration minus its child spans and
   the outermost Obs spans it harvested; a harvested Obs span's seconds
   minus its harvested Obs children.  Summed over a run, the self times
   add up exactly to the root spans' durations. *)
let self_times spans =
  let tbl = Hashtbl.create 32 in
  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t k) in
  let add t k v = Hashtbl.replace t k (get t k +. v) in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then add kids s.parent (duration s)) spans;
  List.iter
    (fun s ->
      (* The harvested span enclosing [n] in [s]; [None] is [s] itself. *)
      let encloser n =
        match obs_parent n with
        | Some p when List.mem_assoc p s.obs -> Some p
        | _ -> None
      in
      let enclosed p =
        List.fold_left
          (fun acc (n, v) -> if encloser n = p then acc +. v else acc)
          0.0 s.obs
      in
      add tbl s.name (duration s -. get kids s.id -. enclosed None);
      List.iter (fun (n, v) -> add tbl n (v -. enclosed (Some n))) s.obs)
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let roots_seconds spans =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
    0.0 spans

(* Obs counter deltas summed over every harvesting span, each divided by
   [per_op r], the number of ops the runs under its root span [r] make
   up: counts per op. *)
let counters_per_op ~per_op spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s.name
  in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if s.counters <> [] then begin
        let d = per_op (root s) in
        List.iter
          (fun (n, v) ->
            Hashtbl.replace tbl n
              ((float_of_int v /. d) +. Option.value ~default:0.0 (Hashtbl.find_opt tbl n)))
          s.counters
      end)
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write_jsonl path ~epoch ~summary =
  let module Json = Ssta_json.Json in
  let t x = Json.Num (x -. epoch) in
  let line oc j =
    output_string oc (Json.to_string j);
    output_char oc '\n'
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          line oc
            (Json.Obj
               ([
                  ("ev", Json.Str "span");
                  ("id", Json.Num (float_of_int s.id));
                  ("parent", Json.Num (float_of_int s.parent));
                  ("name", Json.Str s.name);
                  ("start", t s.start);
                  ("end", t s.stop);
                ]
               @ (if s.req >= 0 then [ ("req", Json.Num (float_of_int s.req)) ]
                  else [])
               @ (if s.reqs = [] then []
                  else
                    [
                      ( "reqs",
                        Json.Arr
                          (List.map (fun r -> Json.Num (float_of_int r)) s.reqs)
                      );
                    ])
               @ (if s.obs = [] then []
                  else
                    [
                      ( "obs",
                        Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) s.obs)
                      );
                    ])
               @
               if s.counters = [] then []
               else
                 [
                   ( "counters",
                     Json.Obj
                       (List.map
                          (fun (n, v) -> (n, Json.Num (float_of_int v)))
                          s.counters) );
                 ])))
        (List.rev !spans);
      List.iter
        (fun r ->
          line oc
            (Json.Obj
               [
                 ("ev", Json.Str "request");
                 ("id", Json.Num (float_of_int r.rid));
                 ("group", Json.Num (float_of_int r.group));
                 ("due", t r.due);
                 ("start", t r.served);
                 ("end", t r.done_);
               ]))
        (List.rev !requests);
      List.iter (line oc) summary)
