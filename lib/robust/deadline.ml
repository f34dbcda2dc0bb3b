(* Cooperative per-request deadlines.

   The serving layer arms an absolute wall-clock deadline before running
   a request and disarms it afterwards; long sweeps (Batch.run scenario
   tasks, the criticality screen's tile loop) call [check] at safe
   points.  An expired deadline raises a structured [Robust.Error] with
   subsystem "deadline", which the daemon turns into a structured
   [timeout] response - the session itself is never left half-mutated
   because checkpoints sit *between* units of work, never inside a
   mutation.

   Unarmed cost is a single atomic load and a float compare (the
   [gettimeofday] syscall only happens while a deadline is armed), so
   the checkpoints are safe to leave in the hot sweep loops.

   The cell is a process-wide atomic rather than per-domain state on
   purpose: Batch.run fans a single request out over worker domains, and
   all of them must observe the same deadline. The serve daemon handles
   requests one at a time, so there is never more than one armed
   deadline. *)

let cell : float Atomic.t = Atomic.make infinity

let arm_at t = Atomic.set cell t

(* [arm_ms ms] arms a deadline [ms] milliseconds from now. *)
let arm_ms ms = Atomic.set cell (Unix.gettimeofday () +. (ms /. 1000.0))
let disarm () = Atomic.set cell infinity
let armed () = Atomic.get cell < infinity

(* A deadline is reached at its own instant, so [deadline_ms = 0] fails
   at the first check whatever the clock's resolution: the response does
   not depend on whether the clock ticked in between. *)
let expired () =
  let d = Atomic.get cell in
  d < infinity && Unix.gettimeofday () >= d

let check ~operation =
  let d = Atomic.get cell in
  if d < infinity && Unix.gettimeofday () >= d then
    Robust.fail ~subsystem:"deadline" ~operation "request deadline exceeded"

(* [with_deadline_ms ms f] runs [f ()] under an armed deadline, always
   disarming on the way out (including on exceptions), so a timed-out
   request cannot leak its deadline into the next one. [ms = None] runs
   [f] unarmed. *)
let with_deadline_ms ms f =
  match ms with
  | None -> f ()
  | Some ms ->
      arm_ms ms;
      Fun.protect ~finally:disarm f

let is_timeout = function
  | Robust.Error c -> c.Robust.subsystem = "deadline"
  | _ -> false
