(** Deterministic mutation fuzzing of the external-design frontend.

    Each case takes a known-good document (structural Verilog / Liberty /
    SDC, rendered from a generator-built circuit), applies one mutation
    drawn from a fixed class — byte truncation, token mutation, line
    shuffle — and runs the matching parser (plus, for Verilog, the full
    design lowering) end to end under a chosen robustness policy.

    The contract under fuzz is narrow and absolute: the parser either
    succeeds, succeeds with counted repairs, or raises
    {!Ssta_robust.Robust.Error} with a [frontend.*] subsystem.  Any other
    escaped exception — [Invalid_argument], [Failure], [Stack_overflow],
    [Not_found] — fails the case.  All randomness comes from
    {!Ssta_gauss.Rng.stream} seeded per case, so the corpus and its JSONL
    verdict stream are bit-stable across runs and domain counts (the CI
    job diffs the streams). *)

module Robust = Ssta_robust.Robust

type format = Verilog | Liberty | Sdc
type klass = Byte_truncate | Token_mutate | Line_shuffle

type verdict = {
  format : format;
  klass : klass;
  case : int;
  policy : Robust.policy;
  outcome : string;  (** ["ok"], ["repaired"] or ["error"] *)
  ok : bool;  (** false iff a non-structured exception escaped *)
  detail : string;  (** structured-error rendering, or the escapee *)
}

type ctx
(** Clean base documents for one circuit; the constructor parses them
    once under [Strict] to guarantee the corpus starts from accepted
    inputs. *)

val mutate : klass -> Ssta_gauss.Rng.t -> string -> string
(** Apply one seeded mutation of the given class to a document.  Exposed
    for other durability surfaces (the serve WAL / disk-cache fuzz in
    [test/test_serve.ml]) so every file format in the repository is
    fuzzed by the same primitives. *)

val make_ctx : string -> ctx
(** [make_ctx circuit] renders the named bundled circuit through
    {!Ssta_frontend.Design.of_netlist} with a representative SDC. *)

val run_case :
  ctx ->
  seed:int ->
  format:format ->
  klass:klass ->
  case:int ->
  policy:Robust.policy ->
  verdict

val run_corpus :
  ctx -> seed:int -> cases_per_class:int -> verdict list
(** Every format x mutation class x {Strict, Repair} x case index, in a
    fixed order: [3 classes * 2 policies * cases_per_class] verdicts per
    format (>= 1000 per format at the default 175). *)

val all_pass : verdict list -> bool
val summary : verdict list -> string
(** Per-format outcome counts, one line per format. *)

val jsonl_of_verdicts : verdict list -> string
(** One JSON object per line - the committed corpus / CI artifact. *)
