(** The ISCAS85-like benchmark suite (see DESIGN.md substitutions).

    Each entry reproduces the input/output counts and closely matches the
    gate/edge/vertex counts of the original ISCAS85 circuit it is named
    after; [paper_row] carries the original counts from Table I of the paper
    for side-by-side reporting. *)

type paper_counts = {
  eo : int;  (** edges in the original benchmark's timing graph *)
  vo : int;  (** vertices in the original benchmark's timing graph *)
}

val names : string array
(** c432 c499 c880 c1355 c1908 c2670 c3540 c5315 c6288 c7552 *)

val build : string -> Netlist.t
(** Raises [Invalid_argument] for an unknown name. *)

val paper_row : string -> paper_counts
(** Original Eo/Vo from Table I; raises [Invalid_argument] if unknown. *)

val all : unit -> (string * Netlist.t) list

type resolve_error =
  | Bad_bench of string  (** the [.bench] file did not parse *)
  | Unknown of string  (** neither a [.bench] file nor a bundled name *)

val resolve : string -> (Netlist.t, resolve_error) result
(** A circuit argument of the CLI and of [hssta serve]: the path of an
    existing [.bench] file ({!Bench_format.load}) or a bundled name
    ({!build}).  Each error carries the underlying message. *)
