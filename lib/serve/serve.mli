(** [hssta serve]: a persistent analysis daemon over the characterized
    design state.

    The paper's flow characterizes a module once and analyzes it many
    times; this module makes that literal across {e process} boundaries:
    a daemon loads the characterized models once — PCA basis, topological
    edge order, packed edge-form slabs — and then answers a
    stream of analysis requests over a unix-domain socket, one JSON
    object per line in, one per line out (JSONL).

    {1 Protocol}

    Requests are single-line JSON objects with an ["op"] field and an
    optional ["id"] echoed verbatim into the response:

    - [{"op":"load","design":D}] — characterize design [D] (a bundled
      ISCAS85 name or a [.bench] path) and make it current.  Models are
      cached under a content hash of the netlist structure plus the
      characterization config, so re-loading (or swapping back to) a
      previously seen design skips characterization entirely.
    - [{"op":"swap","design":D}] — module swap: same machinery as [load]
      (cache-aware), spelled separately so request streams read as the
      ECO flow they encode.
    - [{"op":"quantile","yield":Y,"scenario":S?}] — design-delay mean,
      sigma, and the clock achieving yield [Y] (default 0.99).  With a
      scenario object (same schema as {!Ssta_batch.Batch.parse_scenarios}
      entries) the query is evaluated through the batch engine over the
      {e pristine} design; without, it reads the current (possibly
      what-if-edited) arrival state.  The session's batch base is built
      on the first scenario query and keeps its worker scratch (one
      slab per worker, see {!Ssta_batch.Batch}) for the life of the
      session, so later scenario queries allocate no slab.  Because the
      base never sees what-if edits, a scenario's result is a pure
      function of (session, scenario): the session keeps a memo of up to
      64 results keyed on the scenario object's JSON text, so a repeated
      scenario is answered without a sweep, across commits, transient
      what-ifs and reverts alike ([load]/[swap]/[load_files] start a new,
      empty memo; an insert into a full memo starts it over;
      counter [serve.scenario_memo_hits]).  Two kinds of request bypass
      it: one that carries [deadline_ms] runs its own sweep under its own
      deadline, and one whose scenario needs a repair is decoded afresh
      by each request, so repair counters stay per request.  [yield] and
      [clock] are computed per request from the memoized delay form.
    - [{"op":"report","clock":C?,"yield":Y?}] — per-output arrival mean,
      sigma and yield-clock, read straight from the resident sweep's
      slots; with [clock], per-output slack against it.
    - [{"op":"paths","output":V?,"k":K?}] — top-[K] statistically
      critical paths into output [V] (default: the worst output by mean
      arrival).  Answered by the session's {!Hier_ssta.Path_report.index}
      over the resident arrival state, reset by each request: the trace
      reads the sweep's slots in place, keeps its prefix sums and
      candidate delays in the index's own slabs, and boxes only the [K]
      paths it answers.
    - [{"op":"whatif","edits":E,"mode":M?,"commit":B?}] — ECO-style
      edge-delay edit.  [E] is an array of
      [{"edge":e,"scale":a|"add":d|"set":v}] objects; [M] is
      ["incremental"] (default: dirty-cone re-propagation via
      {!Hier_ssta.Propagate.forward_update_into}) or ["full"] (a full
      re-sweep — the reference the incremental path is bit-identical
      to).  Uncommitted edits ([B] false, the default) are rolled back
      after the response, leaving the session state untouched.
    - [{"op":"revert"}] — drop committed edits, restore pristine forms:
      only the committed edges are restored, and their fanout closure
      re-timed by the incremental path (bit-identical to a full sweep).
    - [{"op":"batch","scenarios":A}] — evaluate a scenario array through
      {!Ssta_batch.Batch.run} over the shared base.
    - [{"op":"stats"}], [{"op":"ping"}], [{"op":"shutdown"}].

    Responses are [{"id":…,"ok":true,…}] or
    [{"id":…,"ok":false,"error":{"subsystem":…,"operation":…,"detail":…,
    "indices":[…],"values":[…]}}] — the {!Ssta_robust.Robust.context} of
    the failure.  A malformed or faulty request degrades per the robust
    policy ([Strict]: the structured error becomes that request's error
    response; [Repair]: defective fields fall back to defaults where the
    operation defines them) — it never terminates the daemon.

    {1 Determinism}

    Every response is serialized with round-trip float precision
    ({!Ssta_json.Json.to_string}), and every analysis underneath is
    bit-identical across domain counts, so a replayed request corpus
    produces a byte-identical response stream at any [PAR_DOMAINS] — the
    CI serve-smoke job pins streams at 1 vs 4 domains with [cmp]. *)

type t
(** Engine state: the model cache plus the current session (design,
    current edge forms, resident arrival sweep, lazy batch base). *)

val create :
  ?cache_dir:string -> ?max_queue:int -> ?checkpoint_every:int -> unit -> t
(** [cache_dir] makes the engine {e durable}: characterized models spill
    to [cache_dir/models/<hash>.model] (checksummed, written via temp
    file + atomic rename, lazily re-loaded on [load]/[swap] across
    process restarts), committed state changes ([load], [swap] as load,
    committed [whatif], [revert]) append to a write-ahead log
    [cache_dir/wal.jsonl] {e before} the response is sent, and every
    [checkpoint_every] WAL records (default 64) the session state is
    checkpointed to [cache_dir/checkpoint] and the WAL truncated.
    [create] replays checkpoint + WAL, so an engine restarted after a
    crash answers the remaining request stream byte-identically to a
    process that never died; a WAL record torn by the crash is truncated
    away (counter [robust.wal_truncated]; [Strict] raises instead), and
    a corrupt cache entry or checkpoint is quarantined to [*.corrupt]
    and recomputed ([robust.cache_corrupt] / [robust.checkpoint_corrupt]).

    [max_queue] (default 256) bounds each pipelined request group:
    requests beyond it are shed unprocessed with an
    [{"ok":false,"overloaded":true,"retry_after_ms":…}] response. *)

val set_max_queue : t -> int -> unit

val cache_size : t -> int
(** Characterized models currently resident (distinct content hashes). *)

val handle_line : t -> string -> string
(** Process one request line, returning the response line (no trailing
    newline).  Catches {!Ssta_robust.Robust.Error} and unexpected
    exceptions into error responses — the caller's loop never dies.
    This is the one request path: {!handle_lines} sends every line of a
    group through it too. *)

val handle_lines : t -> string list -> string list
(** Process a pipelined group of request lines: admit the first
    [max_queue] (see {!create}) and answer each alone, in order, through
    {!handle_line}; shed the rest.  The accepted lines' responses equal
    [List.map (handle_line t)] byte for byte, so grouping never changes
    a response ([test/test_serve.ml] pins it).  A client that wants
    several scenarios swept in parallel sends one [batch] request. *)

val session_state :
  t ->
  (Ssta_timing.Build.t * Ssta_canonical.Form_buf.t * Hier_ssta.Propagate.workspace)
  option
(** The current session's pristine model, current (what-if-edited) edge
    forms and resident arrival sweep; [None] before the first load.  For
    tests that pin the session state bit for bit. *)

val run_daemon : ?socket:string -> ?preload:string list -> t -> unit
(** Bind a unix-domain socket at [socket] (default ["hssta.sock"];
    a stale socket file is replaced), optionally preload designs into
    the model cache, and serve connections until a [shutdown] request.
    One connection is served at a time; within a connection, request
    lines that arrive together are handed to {!handle_lines} as one
    group (gauge [serve.queue_depth] records the deepest group).  The
    socket file is removed on exit. *)

val replay :
  ?pipeline:bool ->
  ?retry:int ->
  ?retry_seed:int ->
  socket:string ->
  requests:string list ->
  unit ->
  string list * float array * float * int option
(** Client side: connect to [socket] (retrying while the daemon boots,
    15 s budget) and replay [requests].  Sequential mode (default) writes
    one request and waits for its response — the returned array holds
    one latency in seconds per answered request.  [~pipeline:true]
    writes the whole corpus, then half-closes and drains — per-request
    latencies are not defined (the array is empty) but request groups on
    the daemon side are exercised.  [~retry:n] (sequential mode) resends
    a request shed with an [overloaded] response up to [n] times,
    sleeping the daemon's [retry_after_ms] hint scaled by seeded
    ([retry_seed]) exponential backoff with jitter between attempts; the
    recorded latency spans all attempts.

    A daemon that goes away (EOF, [EPIPE], [ECONNRESET] or
    [ECONNREFUSED]) ends the replay at the first request it left
    unanswered: sequential mode sends nothing after it.  SIGPIPE is
    ignored process-wide so that a dead daemon reads as a closed
    connection.  Returns (responses of the answered prefix, latencies,
    total wall seconds, [Some i] if request [i] was the first left
    unanswered).  The chaos harness ({!Ssta_robust_inject.Chaos}) replays
    through this same loop. *)

val read_corpus : string -> string list
(** The request lines of a corpus file, blank lines dropped: what
    [hssta client] and the chaos harness replay. *)
