module Obs = Ssta_obs.Obs

type policy = Strict | Repair | Warn

type pos = { line : int; col : int }

type context = {
  subsystem : string;
  operation : string;
  indices : int list;
  values : float list;
  pos : pos option;
  detail : string;
}

exception Error of context

let context ~subsystem ~operation ?(indices = []) ?(values = []) ?pos detail =
  { subsystem; operation; indices; values; pos; detail }

let to_string c =
  let b = Buffer.create 96 in
  Buffer.add_string b "robust error: ";
  Buffer.add_string b c.subsystem;
  Buffer.add_char b '.';
  Buffer.add_string b c.operation;
  Buffer.add_string b ": ";
  Buffer.add_string b c.detail;
  (match c.pos with
  | Some p ->
      Buffer.add_string b (Printf.sprintf " at line %d, col %d" p.line p.col)
  | None -> ());
  if c.indices <> [] then begin
    Buffer.add_string b " [at";
    List.iter (fun i -> Buffer.add_string b (Printf.sprintf " %d" i)) c.indices;
    Buffer.add_char b ']'
  end;
  if c.values <> [] then begin
    Buffer.add_string b " (values";
    List.iter (fun v -> Buffer.add_string b (Printf.sprintf " %.17g" v)) c.values;
    Buffer.add_char b ')'
  end;
  Buffer.contents b

let pp fmt c = Format.pp_print_string fmt (to_string c)

let fail ~subsystem ~operation ?indices ?values ?pos detail =
  raise (Error (context ~subsystem ~operation ?indices ?values ?pos detail))

let () =
  Printexc.register_printer (function
    | Error c -> Some (to_string c)
    | _ -> None)

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "strict" -> Ok Strict
  | "repair" -> Ok Repair
  | "warn" -> Ok Warn
  | other ->
      Result.Error
        (Printf.sprintf "unknown robust policy %S (expected strict|repair|warn)"
           other)

let policy_name = function
  | Strict -> "strict"
  | Repair -> "repair"
  | Warn -> "warn"

let policy_ref =
  ref
    (match Sys.getenv_opt "ROBUST_POLICY" with
    | None -> Repair
    | Some s -> (
        match policy_of_string s with
        | Ok p -> p
        | Result.Error msg ->
            Printf.eprintf "ROBUST_POLICY: %s; defaulting to repair\n%!" msg;
            Repair))

let policy () = !policy_ref
let set_policy p = policy_ref := p

let with_policy p f =
  let prev = policy () in
  set_policy p;
  Fun.protect ~finally:(fun () -> set_policy prev) f

(* Counters: always-on atomics mirrored into same-named Obs counters so
   repairs show up in --obs-summary / traces when observability is on.
   Registration happens at module-init time (no contention); increments
   are lock-free and only occur on actual repairs. *)

type counter = { name : string; cell : int Atomic.t; obs : Obs.counter }

let registry : (string, counter) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let counter name =
  Mutex.lock registry_lock;
  let c =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { name; cell = Atomic.make 0; obs = Obs.counter name } in
        Hashtbl.add registry name c;
        c
  in
  Mutex.unlock registry_lock;
  c

let value c = Atomic.get c.cell

let counters () =
  Mutex.lock registry_lock;
  let all = Hashtbl.fold (fun _ c acc -> (c.name, value c) :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) all

let count c _ctx =
  Atomic.incr c.cell;
  Obs.incr c.obs

(* Warn-mode logging is rate-limited *per subsystem*: degenerate inputs
   can fire per edge in extraction-scale loops, and stderr is not the
   place for millions of lines - but one hot fault class (say, a storm of
   torn WAL records) must not exhaust the budget of every other
   subsystem's first warning.  The counters keep the exact totals. *)
let warn_budget_per_subsystem = 20
let warn_budgets : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 8
let warn_lock = Mutex.create ()

let warn_budget subsystem =
  Mutex.lock warn_lock;
  let b =
    match Hashtbl.find_opt warn_budgets subsystem with
    | Some b -> b
    | None ->
        let b = Atomic.make warn_budget_per_subsystem in
        Hashtbl.add warn_budgets subsystem b;
        b
  in
  Mutex.unlock warn_lock;
  b

let warn_reset () =
  Mutex.lock warn_lock;
  Hashtbl.iter (fun _ b -> Atomic.set b warn_budget_per_subsystem) warn_budgets;
  Mutex.unlock warn_lock

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry;
  Mutex.unlock registry_lock;
  warn_reset ()

let warn_log ctx =
  let left = Atomic.fetch_and_add (warn_budget ctx.subsystem) (-1) in
  if left > 0 then Printf.eprintf "robust: repaired %s\n%!" (to_string ctx)
  else if left = 0 then
    Printf.eprintf
      "robust: further %s repair warnings suppressed (see robust.* counters)\n%!"
      ctx.subsystem

let repair c ctx =
  match !policy_ref with
  | Strict -> raise (Error ctx)
  | Repair -> count c ctx
  | Warn ->
      count c ctx;
      warn_log ctx

let is_finite x = x -. x = 0.0
