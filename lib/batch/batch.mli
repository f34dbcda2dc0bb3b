(** Scenario-batch engine: evaluate S structured deltas over one base
    design in a single invocation — "characterize once, analyze many
    times" made literal.

    A {!scenario} is a structured delta over a characterized
    {!Ssta_timing.Build.t}: a corner selection (reusing
    {!Hier_ssta.Corners.corner}), a global deterministic delay scale, a
    sensitivity (sigma) scale, and a floorplan gradient over the
    correlation grid's tiles.  All scenario-invariant state — the
    topological edge order, the PCA basis and the packed base edge forms
    — is built once by {!prepare} and shared across the whole batch.

    Per-scenario state lives on slab-backed {!Ssta_canonical.Form_buf}
    storage: each pool worker carves its scenario form buffer and sweep
    workspace out of one capacity-planned slab, so evaluating scenario
    S+1 reuses scenario S's allocation byte for byte (gauge
    [batch.slab_bytes_peak] records the high water).

    Determinism contract: the task grid is a pure function of the batch
    size and the input count — never of the domain count — every task
    writes only its own result slot, and worker scratch is fully
    re-derived per scenario.  A batch of S scenarios is therefore
    bit-identical at every domain count, and bit-identical to S
    independent {!run_one} calls; [test/test_batch.ml] pins both. *)

module Form = Ssta_canonical.Form
module Build = Ssta_timing.Build
module Corners = Hier_ssta.Corners

type grid_variant =
  | Uniform
  | Gradient of { gx : float; gy : float }
      (** Per-tile delay factor [1 + gx * xn + gy * yn] over the tile
          center's normalized die coordinates (xn, yn in [0, 1)) — a
          linear floorplan/grid variant such as a supply or thermal
          gradient. *)

type scenario = {
  label : string;
  corner : Corners.corner;  (** corner selection for the edge means *)
  delay_scale : float;  (** global deterministic delay factor *)
  sigma_scale : float;  (** scales every variation coefficient *)
  grid_variant : grid_variant;
  delta : float;  (** criticality threshold used by [~screen] *)
}

val nominal : ?label:string -> unit -> scenario
(** The identity scenario: nominal corner, unit scales, uniform grid. *)

val default_scenarios : int -> scenario array
(** A deterministic default grid over the scenario axes (corners cycle,
    scales sweep a few percent, alternating gradients) for the CLI and
    benches. *)

type mode =
  | Delay  (** one all-inputs forward sweep per scenario: design delay
               form and per-output summaries *)
  | Io  (** one exclusive {!Hier_ssta.Propagate.forward_into} sweep per
            input (paper eq. (15)), the same engine as
            {!Hier_ssta.Timing_model.io_delays}: the |I| x |O| delay form
            matrix per scenario *)

type result = {
  scenario : scenario;
  delay : Form.t option;  (** design delay ({!Delay} mode; [None] in Io) *)
  out_mu : float array;  (** per-output mean, [nan] where unreachable *)
  out_sigma : float array;
  io : Form.t option array array;
      (** {!Io} mode: [io.(i).(j)] is the input-i-to-output-j delay form;
          [[||]] in {!Delay} mode *)
  kept_edges : int;
      (** edges kept by the criticality screen at [scenario.delta];
          [-1] unless [~screen] was set *)
}

type base
(** Scenario-invariant state shared by every scenario of a batch. *)

val prepare : Build.t -> base
(** Pack the base design's edge forms and grid geometry once. *)

val run :
  ?domains:int ->
  ?mode:mode ->
  ?screen:bool ->
  base ->
  scenario array ->
  result array
(** Evaluate the batch, scheduled over scenarios (times input chunks in
    {!Io} mode) on the deterministic domain pool.  [screen] additionally
    runs the criticality screen per scenario (sequentially — the screen
    parallelizes internally) and fills [kept_edges]. *)

val run_one :
  ?domains:int -> ?mode:mode -> ?screen:bool -> base -> scenario -> result
(** A batch of one — the reference point for the bit-identity contract. *)

val scenario_of_json : int -> Ssta_json.Json.t -> scenario
(** Decode one scenario object (entry [idx] of a spec array).  Every
    defect — non-object entry, wrong field type, unknown corner name,
    non-finite or negative [sigma_scale], non-positive [delay_scale],
    [delta] outside (0, 1) — is routed through
    {!Ssta_robust.Robust.repair} under counter
    [robust.scenario_repairs]: under [Strict] policy it raises
    {!Ssta_robust.Robust.Error} with a structured context, under
    [Repair]/[Warn] the offending field falls back to its documented
    default and decoding continues. *)

val scenarios_of_json : Ssta_json.Json.t -> scenario array
(** Decode a spec array via {!scenario_of_json}; a non-array spec is a
    repairable defect (default: one nominal scenario). *)

val parse_scenarios : string -> (scenario array, string) Stdlib.result
(** Parse a scenario-spec JSON array (see README: objects with optional
    fields [label], [corner] (["nominal"|"slow"|"fast"|"global_slow"]),
    [k], [delay_scale], [sigma_scale], [grad_x], [grad_y], [delta]).
    Unknown fields are ignored; no external JSON dependency.

    Malformed input degrades per the {!Ssta_robust.Robust} policy (see
    {!scenario_of_json}): under [Strict] the structured error
    propagates as an exception; under [Repair]/[Warn] the result is
    always [Ok] with defects replaced by defaults, so the [Error _] arm
    survives only for future non-repairable conditions. *)
