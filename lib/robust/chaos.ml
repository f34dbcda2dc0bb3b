(* Chaos/recovery harness: seeded crash points against the real serve
   daemon, over a real unix socket, with byte-identity verdicts.

   One case = one crash class at one seeded position:
   1. boot a fresh daemon (own state dir) with HSSTA_CRASH_AT=<point>:<n>
      and replay the corpus sequentially until the connection dies;
   2. reap the corpse (it must have exited with Crash.exit_code);
   3. restart the daemon on the same state dir *without* the crash hook,
      replay the unanswered tail of the corpus;
   4. assert the concatenated response stream is byte-identical to an
      uninterrupted reference run of the same corpus on a third daemon.

   The verdict stream is fully deterministic (crash positions are seeded,
   answered-request counts are a function of the corpus and the crash
   spec, and responses are bit-deterministic), so the JSONL is committed
   as a golden and replayed in CI; the recovery wall-clock is reported
   separately, never in the golden.  Every replay goes through
   Serve.replay, the loop [hssta client] uses, which stops at the first
   request a dead daemon leaves unanswered. *)

module Serve = Ssta_serve.Serve
module Store = Ssta_serve.Store
module Json = Ssta_json.Json
module Robust = Ssta_robust.Robust

type case = { label : string; point : string; index : int }

(* Positions assume the committed recovery corpus shape: a load first
   (so cache_write:1 tears the first model spill), several committed
   what-ifs (wal_append/wal_sync positions), interleaved reads, shutdown
   last.  A corpus with fewer WAL-able requests than an index simply
   never crashes, and the verdict records recovered=false. *)
let default_cases =
  [
    { label = "request_3"; point = "request"; index = 3 };
    { label = "request_9"; point = "request"; index = 9 };
    { label = "wal_append_2"; point = "wal_append"; index = 2 };
    { label = "wal_append_5"; point = "wal_append"; index = 5 };
    { label = "wal_sync_3"; point = "wal_sync"; index = 3 };
    { label = "cache_write_1"; point = "cache_write"; index = 1 };
  ]

type verdict = {
  label : string;
  point : string;
  index : int;
  crash_exit : int;  (** observed exit status of the crashed daemon *)
  answered : int;  (** responses received before the connection died *)
  recovered : bool;  (** restart came up and served the tail *)
  identical : bool;  (** head @ tail responses = uninterrupted reference *)
  recovery_ms : float;  (** restart -> tail answered (informational) *)
}

let verdict_json v =
  Json.to_string
    (Json.Obj
       [
         ("case", Json.Str v.label);
         ("point", Json.Str v.point);
         ("index", Json.Num (float_of_int v.index));
         ("crash_exit", Json.Num (float_of_int v.crash_exit));
         ("answered", Json.Num (float_of_int v.answered));
         ("recovered", Json.Bool v.recovered);
         ("identical", Json.Bool v.identical);
       ])

let jsonl_of_verdicts vs = String.concat "\n" (List.map verdict_json vs) ^ "\n"

(* ---- subprocess plumbing ------------------------------------------ *)

(* Remove [path] and everything under it (symlinks are removed, never
   followed); a missing path is fine. *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A state directory left by an earlier run would serve its cached model
   and change what the crash points see. *)
let fresh_dir path =
  rm_rf path;
  Store.mkdir_p path

let base_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"HSSTA_CRASH_AT=" kv))

let spawn_daemon ~exe ~socket ~cache_dir ~checkpoint_every ?crash_at () =
  let env = base_env () in
  let env =
    match crash_at with
    | None -> env
    | Some (point, index) ->
        Printf.sprintf "HSSTA_CRASH_AT=%s:%d" point index :: env
  in
  let args =
    [|
      exe;
      "serve";
      "--socket";
      socket;
      "--cache-dir";
      cache_dir;
      "--wal-checkpoint";
      string_of_int checkpoint_every;
    |]
  in
  Unix.create_process_env exe args (Array.of_list env) Unix.stdin Unix.stdout
    Unix.stderr

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, Unix.WSIGNALED s -> -s
  | _, Unix.WSTOPPED s -> -s

(* ---- the harness --------------------------------------------------- *)

let run_case ~exe ~dir ~corpus ~reference ~checkpoint_every (case : case) =
  let case_dir = Filename.concat dir ("case_" ^ case.label) in
  fresh_dir case_dir;
  let socket = Filename.concat case_dir "serve.sock" in
  let cache_dir = Filename.concat case_dir "state" in
  (* Phase 1: the crashing run. *)
  let pid =
    spawn_daemon ~exe ~socket ~cache_dir ~checkpoint_every
      ~crash_at:(case.point, case.index) ()
  in
  let head, _, _, died = Serve.replay ~socket ~requests:corpus () in
  let crash_exit = reap pid in
  match died with
  | None ->
      (* The crash point was never reached: the corpus drained and the
         daemon exited via its shutdown request. *)
      {
        label = case.label;
        point = case.point;
        index = case.index;
        crash_exit;
        answered = List.length head;
        recovered = false;
        identical = head = reference;
        recovery_ms = 0.0;
      }
  | Some i ->
      (* Phase 2: restart on the same state dir, replay the tail. *)
      let t0 = Unix.gettimeofday () in
      let pid = spawn_daemon ~exe ~socket ~cache_dir ~checkpoint_every () in
      let requests = List.filteri (fun j _ -> j >= i) corpus in
      let tail, _, _, died2 = Serve.replay ~socket ~requests () in
      let recovery_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let exit2 = reap pid in
      let recovered = died2 = None && exit2 = 0 in
      {
        label = case.label;
        point = case.point;
        index = case.index;
        crash_exit;
        answered = List.length head;
        recovered;
        identical = head @ tail = reference;
        recovery_ms;
      }

let run ~exe ~corpus_path ~dir ?(cases = default_cases)
    ?(checkpoint_every = 3) () =
  Store.mkdir_p dir;
  let corpus = Serve.read_corpus corpus_path in
  if corpus = [] then
    Robust.fail ~subsystem:"chaos" ~operation:"run"
      ("empty chaos corpus: " ^ corpus_path);
  (* Uninterrupted reference run. *)
  let ref_dir = Filename.concat dir "reference" in
  fresh_dir ref_dir;
  let socket = Filename.concat ref_dir "serve.sock" in
  let pid =
    spawn_daemon ~exe ~socket
      ~cache_dir:(Filename.concat ref_dir "state")
      ~checkpoint_every ()
  in
  let reference, _, _, ref_died = Serve.replay ~socket ~requests:corpus () in
  let ref_exit = reap pid in
  if ref_died <> None || ref_exit <> 0 then
    Robust.fail ~subsystem:"chaos" ~operation:"reference"
      (Printf.sprintf
         "uninterrupted reference run failed (answered %d/%d, exit %d)"
         (List.length reference) (List.length corpus) ref_exit);
  List.map (run_case ~exe ~dir ~corpus ~reference ~checkpoint_every) cases
