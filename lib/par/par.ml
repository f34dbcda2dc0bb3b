(* Deterministic multicore execution for the MC and extraction hot loops.

   The pool is a fixed-size set of OCaml 5 domains draining an indexed task
   list through one atomic counter.  Determinism comes from two invariants,
   not from the scheduler:

   - the task list (chunk layout) is a pure function of the problem size,
     never of the domain count, so every run decomposes the work
     identically; and
   - each task writes only to its own slot (or returns a value that is
     combined in task-index order after the join barrier), so the merged
     result is bit-identical no matter which domain ran which task, or in
     which order.

   [domains = 1] never spawns: the tasks run in the calling domain, in
   index order - the exact sequential path.  Because tasks are independent
   and merges happen in index order, that path produces the same bits as
   any parallel execution, which is what `test/test_par.ml` pins.

   Domains are spawned per parallel region rather than parked in a global
   queue: a region's tasks are coarse (a chunk of MC samples, a full
   forward sweep), so the ~100us spawn cost is noise, and joining inside
   the region gives the publication barrier that makes the workers' writes
   visible to the caller without any further synchronization. *)

(* The pure parser behind PAR_DOMAINS: a positive integer, [None]
   otherwise.  An invalid value warns once and falls back to the CPU
   count, the same default as an unset variable. *)
let domains_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

let env_default =
  lazy
    (let cpus = max 1 (Domain.recommended_domain_count ()) in
     match Sys.getenv_opt "PAR_DOMAINS" with
     | None -> cpus
     | Some s -> (
         match domains_of_string s with
         | Some n -> n
         | None ->
             Printf.eprintf
               "PAR_DOMAINS: %S is not a positive integer; defaulting to the \
                CPU count (%d)\n\
                %!"
               s cpus;
             cpus))

let override = ref None
let set_domains n = override := Some (max 1 n)

let domains () =
  match !override with Some n -> n | None -> Lazy.force env_default

(* Run [f ()] with the domain count forced to [n], restoring the previous
   setting afterwards (used by tests and the bench scaling sweeps). *)
let with_domains n f =
  let saved = !override in
  set_domains n;
  Fun.protect ~finally:(fun () -> override := saved) f

let resolve = function Some n -> max 1 n | None -> domains ()

(* Execute [n_tasks] independent tasks on [domains] workers.  Each worker
   builds one [init ()] scratch value and reuses it across every task it
   claims; tasks must therefore not let results depend on scratch history
   (our workspaces re-prepare themselves per sweep).  Exceptions raised by
   a task surface to the caller after all workers have been joined. *)
let run_tasks ?domains ~n_tasks ~init ~task () =
  if n_tasks > 0 then begin
    let d = min (resolve domains) n_tasks in
    if d <= 1 then begin
      let w = init () in
      for i = 0 to n_tasks - 1 do
        task w i
      done
    end
    else begin
      let next = Atomic.make 0 in
      let worker () =
        let w = init () in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n_tasks then begin
            task w i;
            loop ()
          end
        in
        loop ()
      in
      let others = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
      let first_exn = ref None in
      (try worker () with e -> first_exn := Some e);
      Array.iter
        (fun dom ->
          try Domain.join dom
          with e -> if !first_exn = None then first_exn := Some e)
        others;
      match !first_exn with Some e -> raise e | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Pooled scratch                                                      *)
(* ------------------------------------------------------------------ *)

(* A reusable bag of worker-scratch values for regions that run many times
   in sequence - e.g. the criticality screen, once per output tile.  Each
   worker checks one value out at region entry and returns it at the join,
   so the whole sequence of regions builds at most max(domains) scratch
   values instead of one set per region.  Determinism is untouched: tasks
   already must not let results depend on scratch history (workspaces
   re-prepare themselves per sweep), and which worker drew which scratch is
   exactly as unobservable as which worker ran which task. *)
type 'w pool = { mk : unit -> 'w; lock : Mutex.t; mutable free : 'w list }

let pool mk = { mk; lock = Mutex.create (); free = [] }

let pool_take p =
  Mutex.lock p.lock;
  let w =
    match p.free with
    | [] -> None
    | w :: tl ->
        p.free <- tl;
        Some w
  in
  Mutex.unlock p.lock;
  match w with Some w -> w | None -> p.mk ()

let pool_put p w =
  Mutex.lock p.lock;
  p.free <- w :: p.free;
  Mutex.unlock p.lock

(* Snapshot of the currently checked-in scratch values.  After the join
   barrier of a [run_tasks_pool] region every worker has returned its
   scratch, so the snapshot is the complete set - the criticality screen
   folds its workers' slab peaks into a resident-memory gauge this way. *)
let pool_members p =
  Mutex.lock p.lock;
  let l = p.free in
  Mutex.unlock p.lock;
  l

(* [run_tasks] drawing worker scratch from a pool instead of building it
   with a per-region [init].  Same task semantics and the same
   deterministic chunk-claiming scheme. *)
let run_tasks_pool ?domains ~n_tasks ~pool:p ~task () =
  if n_tasks > 0 then begin
    let d = min (resolve domains) n_tasks in
    if d <= 1 then begin
      let w = pool_take p in
      Fun.protect ~finally:(fun () -> pool_put p w) @@ fun () ->
      for i = 0 to n_tasks - 1 do
        task w i
      done
    end
    else begin
      let next = Atomic.make 0 in
      let worker () =
        let w = pool_take p in
        Fun.protect ~finally:(fun () -> pool_put p w) @@ fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n_tasks then begin
            task w i;
            loop ()
          end
        in
        loop ()
      in
      let others = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
      let first_exn = ref None in
      (try worker () with e -> first_exn := Some e);
      Array.iter
        (fun dom ->
          try Domain.join dom
          with e -> if !first_exn = None then first_exn := Some e)
        others;
      match !first_exn with Some e -> raise e | None -> ()
    end
  end

(* As [run_tasks], but collect each task's return value, in task order. *)
let map_tasks ?domains ~init n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run_tasks ?domains ~n_tasks:n ~init
      ~task:(fun w i -> out.(i) <- Some (f w i))
      ();
    Array.map (function Some v -> v | None -> assert false) out
  end

(* ------------------------------------------------------------------ *)
(* Chunked index ranges                                                *)
(* ------------------------------------------------------------------ *)

(* Chunk layout over [0, n): fixed-size chunks (the last one short), a pure
   function of [n] and [chunk] only.  [chunk <= 0] is clamped to 1. *)
let n_chunks ~chunk n =
  let c = max 1 chunk in
  if n <= 0 then 0 else (n + c - 1) / c

let chunk_bounds ~chunk ~n i =
  let c = max 1 chunk in
  let lo = i * c in
  (lo, min n (lo + c))

(* Fan the fixed-size blocks of [0, n) out over the domain pool: block [b]
   runs [task lo hi] with [chunk_bounds ~chunk:block ~n b].  The block
   layout is a pure function of [n] and [block] only (never of the domain
   count), so callers whose per-block work is deterministic get the usual
   bit-identical merge for free — the criticality screen's blocked
   backward tiles schedule through this. *)
let run_blocks ?domains ~block ~n ~task () =
  run_tasks ?domains
    ~n_tasks:(n_chunks ~chunk:block n)
    ~init:(fun () -> ())
    ~task:(fun () b ->
      let lo, hi = chunk_bounds ~chunk:block ~n b in
      task lo hi)
    ()

(* Map [f ~chunk ~lo ~hi] over every chunk of [0, n); the result array is
   in chunk-index order regardless of the domain count. *)
let map_chunks ?domains ~chunk ~n f =
  map_tasks ?domains
    ~init:(fun () -> ())
    (n_chunks ~chunk n)
    (fun () i ->
      let lo, hi = chunk_bounds ~chunk ~n i in
      f ~chunk:i ~lo ~hi)

(* Chunked map-reduce: chunk results are folded with [merge] strictly in
   chunk-index order, so non-commutative merges (running statistics) stay
   deterministic. *)
let fold_chunks ?domains ~chunk ~n ~init:acc0 ~merge f =
  Array.fold_left merge acc0 (map_chunks ?domains ~chunk ~n f)
