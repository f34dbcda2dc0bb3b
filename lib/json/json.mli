(** Minimal dependency-free JSON: the wire format of the scenario-spec
    files ({!Ssta_batch.Batch.parse_scenarios}) and of the [hssta serve]
    JSONL request/response protocol.

    The reader is a recursive-descent parser over a complete string
    (arrays, flat or nested objects, strings, numbers, true/false/null);
    the writer emits one compact line with round-trip float precision, so
    a response stream is byte-deterministic for bit-identical inputs —
    the property the serve CI smoke test pins across domain counts. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse_exn} with a message naming the byte offset. *)

val parse_exn : string -> t
val parse : string -> (t, string) result

val to_string : t -> string
(** Compact single-line serialization.  Floats use [%.17g] (round-trip
    precision) except integral values in int range, which print as
    integers; non-finite numbers become [null] (JSON has no spelling for
    them); strings are ASCII-escaped. *)

(** {1 Accessors} *)

val find : string -> t -> t option
(** Field lookup; [None] unless the value is an object with the field. *)

val mem : string -> t -> bool

val to_num : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option

val num_field : ?default:float -> string -> t -> (float, string) result
(** Field as a number; [Error] names the field when it is present with a
    non-numeric value, or missing with no [default]. *)

val str_field : ?default:string -> string -> t -> (string, string) result
val bool_field : ?default:bool -> string -> t -> (bool, string) result
