(** Observability: per-phase timing spans, named counters/gauges, and
    memory metrics for the extraction and hierarchical-SSTA pipeline.

    Design constraints (see ISSUE 3 / DESIGN.md):

    + {e Zero-dependency and allocation-conscious.}  Disabled (the
      default), every entry point is one global-flag load and a branch —
      no closure is invoked, no event is allocated — so instrumentation
      can live permanently in the hot layers ([Propagate], [Criticality],
      the MC engines) without costing the kernels anything measurable.
      Hot loops must not call {!add} per element; they count into a
      local [int] and publish once per region.
    + {e Per-domain safe.}  Counters and gauges are atomics; span
      aggregates and the trace sink are mutex-protected.  Events may be
      recorded from any {!Ssta_par.Par} worker domain.  Counter totals
      are sums (and gauges maxima), so merged values are deterministic —
      independent of the domain count and of scheduling — whenever the
      per-region contributions are (which [Par]'s fixed chunk layouts
      guarantee).
    + {e Two sinks.}  An aggregated in-memory view ({!counters}, {!spans},
      {!pp}) for summaries and bench metrics, and an optional JSONL trace
      stream ({!trace_to_file}, [OBS_TRACE]) with one self-contained JSON
      object per line: span begin/end events carry the domain id, a
      timestamp relative to the trace epoch, and per-span GC minor/major
      words; counter and gauge values are appended when the trace is
      closed.

    Time is wall-clock ([Unix.gettimeofday]) with durations clamped to be
    non-negative, which is monotonic enough for per-phase attribution;
    GC words come from [Gc.quick_stat] and are per-domain (a span's word
    deltas only cover allocation by the domain that opened it). *)

val enabled : unit -> bool
(** Whether events are being recorded.  Hot paths read this once per
    region and skip all bookkeeping when false. *)

val enable : unit -> unit
val disable : unit -> unit

val set_enabled : bool -> unit
(** [set_enabled (enabled ())]-style save/restore for tests and bench. *)

(** {1 Counters and gauges}

    Handles are registered by name once (typically at module
    initialization) and updated lock-free.  Creating the same name twice
    returns the same handle. *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** Current total; reads are exact only outside parallel regions. *)

type gauge
(** A high-water mark (e.g. workspace floats, buffer slots). *)

val gauge : string -> gauge
val gauge_max : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Spans} *)

type span
(** An open timing span.  Spans nest per domain (begin/end pairs follow
    the call structure); a span opened while disabled is inert. *)

val span_begin : string -> span
val span_end : span -> unit

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the span is closed on
    exceptions too.  Disabled, this is exactly [f ()]. *)

type span_stats = {
  count : int;  (** completed spans of this name *)
  seconds : float;  (** total wall-clock inside them *)
  minor_words : float;  (** GC minor words allocated (opening domain) *)
  major_words : float;  (** GC major words allocated (opening domain) *)
}

(** {1 Aggregated views} *)

val counters : unit -> (string * int) list
(** All registered counters, sorted by name (including zeros). *)

val spans : unit -> (string * span_stats) list
(** Aggregate per span name, sorted by name; only completed spans. *)

val span_seconds : string -> float
(** Total seconds of the named span, 0 if it never completed. *)

val find_counter : string -> int
(** Value of a registered counter by name, 0 if unregistered. *)

val reset : unit -> unit
(** Zero every counter, gauge, and span aggregate (registrations are
    kept).  Does not touch the trace channel. *)

val pp : Format.formatter -> unit -> unit
(** Human summary: spans (count, seconds, GC words), then counters and
    gauges, sorted by name.  Zero-valued counters are elided. *)

(** {1 JSONL trace sink}

    Event schema, one JSON object per line:
    - [{"ev":"B","name":N,"dom":D,"t":T}] — span begin;
    - [{"ev":"E","name":N,"dom":D,"t":T,"dur_s":S,"minor_w":W,"major_w":W}]
      — span end;
    - [{"ev":"C","name":N,"v":V}] / [{"ev":"G","name":N,"v":V}] — counter
      and gauge totals, emitted by {!close_trace}.

    [T] is seconds since the trace was opened; [D] the integer id of the
    recording domain.  Lines are written atomically under a lock, so a
    trace written by a parallel run is still one valid JSON object per
    line, with begin/end events properly nested {e per domain}. *)

val trace_to_file : string -> unit
(** Open (truncate) a JSONL sink.  Replaces any previous sink (the old
    one is flushed and closed).  Does not by itself {!enable} recording.
    An [at_exit] hook flushes counter totals and closes the sink. *)

val close_trace : unit -> unit
(** Append current counter/gauge totals as [C]/[G] lines, then flush,
    close and detach the sink.  No-op without one. *)

(** At library initialization, a non-empty [OBS_TRACE] environment
    variable opens that path as the trace sink and enables recording, so
    any binary linking this library honors [OBS_TRACE] without code. *)
