(** Deterministic fault-injection harness for the graceful-degradation
    layer.

    Each corpus case perturbs a real analysis run of an ISCAS85 circuit -
    the extraction flow (characterize, extract, instantiate the model) or
    the hierarchical flow (a two-instance design over the extracted model)
    - with one fault drawn from a fixed taxonomy, then runs the perturbed
    flow end to end under a chosen robustness policy:

    - under [Strict] the case passes iff the run raises
      {!Ssta_robust.Robust.Error} whose [subsystem] names the expected
      fault site;
    - under [Repair]/[Warn] the case passes iff the run completes, its
      end-to-end delay is finite and within a bounded delta of the clean
      reference, and the expected repair counter fired.

    All randomness (which edge, which tile pair) comes from
    {!Ssta_gauss.Rng.stream} seeded per case, so the corpus is bit-stable
    across runs and domain counts. *)

module Robust = Ssta_robust.Robust

type flow = Extraction | Hierarchical

val flow_name : flow -> string

val faults : string array
(** The fault taxonomy: [nan_edge_delay], [inf_edge_delay],
    [zero_variance_cell], [near_singular_cov], [rank_deficient_cov],
    [corrupt_model_float], [negative_model_eigenvalue]. *)

type verdict = {
  circuit : string;
  fault : string;
  flow : flow;
  policy : Robust.policy;
  ok : bool;
  detail : string;  (** the structured error (Strict) or the delta check *)
  counters : (string * int) list;  (** non-zero robust counters after *)
}

type ctx
(** Clean per-circuit context: characterization, extracted model and the
    clean reference delays both flows are compared against under repair. *)

val make_ctx : string -> ctx
(** [make_ctx circuit] characterizes and extracts the named ISCAS85
    circuit once; reuse the context across cases and policies. *)

val run_case :
  ctx -> seed:int -> fault:string -> flow:flow -> policy:Robust.policy -> verdict
(** Runs one corpus case.  The global policy is set for the duration of
    the case and restored afterwards; counters are reset before the run.
    Unknown fault names raise [Invalid_argument]. *)

val run_corpus :
  ctx -> seed:int -> policy:Robust.policy -> verdict list
(** Every fault class crossed with both flows, in a fixed order. *)

val all_pass : verdict list -> bool

val jsonl_of_verdicts : verdict list -> string
(** One JSON object per line: circuit, fault, flow, policy, ok, detail and
    the non-zero counters - the CI artifact format. *)
