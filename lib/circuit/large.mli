(** Large-scale synthetic designs: a grid of {!Random_logic} blocks
    spliced into one flat topological netlist, reaching millions of gates
    with small port counts.  The result is a pure function of the spec
    (every block seed derives deterministically from [seed] and the block
    index). *)

type spec = {
  name : string;
  n_pi : int;  (** global primary inputs *)
  n_po : int;  (** design outputs after the merge reduction *)
  blocks_x : int;
  blocks_y : int;
  gates_per_block : int;
  block_po : int;  (** outputs each block exposes to its neighbours *)
  seed : int;
}

val make : spec -> Netlist.t
(** Total gate count is [blocks_x * blocks_y * gates_per_block] plus the
    or2 merge tree over the unconsumed edge-block outputs. *)

val of_gates : ?seed:int -> int -> Netlist.t
(** A preset design of {e at least} the requested gate count: 4096-gate
    blocks on the squarest grid covering it, 32 PIs / 32 POs at every
    size.  [of_gates 1_000_000] is the million-gate extraction design
    (16 x 16 blocks, "grid1m"); [of_gates 100_000] is the 102,400-gate
    5 x 5 grid ("grid100k") of the ledger benchmark's [grid100k]
    workload.  Characterize with a large [cells_per_tile]
    (e.g. 65536) so the correlation grid — and with it the PCA
    dimension — stays bounded as the design grows. *)

val million : ?seed:int -> unit -> Netlist.t
(** [of_gates 1_000_000] — the ~1M-gate preset of the [million]
    experiment in bench/main.ml. *)
