(** Graceful-degradation layer: structured numerical errors and a global
    repair policy.

    Every numerically fragile step of the flow (grid-covariance PCA,
    Clark-max moment matching, the A^-1 B_n replacement, model
    deserialisation) funnels its degenerate cases through this module.  A
    site that detects a degenerate input calls {!repair}: under [Strict]
    the call raises {!Error} with full context (subsystem, operation,
    indices, offending values); under [Repair] it increments an always-on
    counter (mirrored into [Obs] when observability is enabled) and
    returns, letting the caller apply its closed-form fix-up; [Warn] is
    [Repair] plus a rate-limited stderr line per event.

    The policy is global and deterministic: it never changes results on
    clean inputs (detection is read-only), so strict/repair/warn are
    bit-identical whenever no degeneracy fires. *)

type policy = Strict | Repair | Warn

type pos = { line : int; col : int }
(** A 1-based source position inside a parsed file.  Every file-format
    parser of the repository (the timing-model reader, the Verilog /
    Liberty / SDC frontend) reports its errors through this one type so
    locations render uniformly. *)

type context = {
  subsystem : string;  (** e.g. ["linalg.sym_eig"] *)
  operation : string;  (** e.g. ["factor"] *)
  indices : int list;  (** offending positions: pivot, edge, line, ... *)
  values : float list;  (** offending values, parallel to the message *)
  pos : pos option;  (** source location for file-format errors *)
  detail : string;  (** human-readable description of the degeneracy *)
}

exception Error of context

val context :
  subsystem:string ->
  operation:string ->
  ?indices:int list ->
  ?values:float list ->
  ?pos:pos ->
  string ->
  context

val fail :
  subsystem:string ->
  operation:string ->
  ?indices:int list ->
  ?values:float list ->
  ?pos:pos ->
  string ->
  'a
(** Raise {!Error} unconditionally (for defects that have no repair). *)

val to_string : context -> string
val pp : Format.formatter -> context -> unit

val policy : unit -> policy
val set_policy : policy -> unit

val with_policy : policy -> (unit -> 'a) -> 'a
(** [with_policy p f] runs [f] under [p] and restores the previous policy
    however [f] returns. *)

val policy_of_string : string -> (policy, string) result
val policy_name : policy -> string

(** {1 Repair counters}

    Counters are process-global atomics, always on (a repair must be
    observable even when the [Obs] layer is disabled), and mirrored into
    same-named [Obs] counters so they appear in [--obs-summary] and JSONL
    traces.  They are only touched on actual repairs - the clean path
    never loads them. *)

type counter

val counter : string -> counter
(** Registers (or returns the existing) counter with the given name.
    Names follow the [robust.*] convention. *)

val repair : counter -> context -> unit
(** The policy dispatch point.  [Strict]: raises [Error ctx].
    [Repair]: increments [c].  [Warn]: increments [c] and logs [ctx] to
    stderr (first 20 events, then a suppression notice). *)

val count : counter -> context -> unit
(** Increment without consulting the policy - for events that are part of
    today's normal behaviour (e.g. NaN inputs sanitized inside the Clark max) and must not
    raise under [Strict]. *)

val value : counter -> int
val counters : unit -> (string * int) list
(** All registered counters with non-zero values first omitted - returns
    every registered counter (including zeros), sorted by name. *)

val reset : unit -> unit
(** Zero every counter (tests and the injection harness). *)

val is_finite : float -> bool
(** [true] iff neither NaN nor infinite.  Branch-cheap: [x -. x = 0.0]. *)
