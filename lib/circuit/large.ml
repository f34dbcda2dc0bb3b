module B = Netlist.Builder
module N = Netlist
module L = Ssta_cell.Library

(* Large-scale synthetic designs: a grid of Random_logic blocks spliced
   into one flat netlist.  Blocks are emitted in row-major order; each
   block's primary inputs are fed by the exposed outputs of its left and
   up neighbours plus a deterministic handful of global PIs, so every
   feed is an already-emitted node and the splice preserves topological
   order by construction.  Unconsumed block outputs (right column and
   bottom row) are merged pairwise to exactly [n_po] design outputs, the
   same or2 reduction Random_logic uses.

   The point is scale, not realism: the composition reaches millions of
   gates while keeping the port counts small (the criticality screen's
   chunk state scales with |I|), and every block is generated from a
   seed derived deterministically from the spec seed and the block
   index, so the netlist is a pure function of its spec. *)

type spec = {
  name : string;
  n_pi : int;
  n_po : int;
  blocks_x : int;
  blocks_y : int;
  gates_per_block : int;
  block_po : int;
  seed : int;
}

let make spec =
  if spec.n_pi <= 0 || spec.n_po <= 0 then
    invalid_arg "Large.make: port counts must be positive";
  if spec.blocks_x <= 0 || spec.blocks_y <= 0 || spec.gates_per_block <= 0
  then invalid_arg "Large.make: block grid must be positive";
  if spec.block_po <= 0 then
    invalid_arg "Large.make: block_po must be positive";
  let b = B.create ~name:spec.name ~n_pi:spec.n_pi in
  let outs = Array.make_matrix spec.blocks_y spec.blocks_x [||] in
  for by = 0 to spec.blocks_y - 1 do
    for bx = 0 to spec.blocks_x - 1 do
      let bi = (by * spec.blocks_x) + bx in
      (* Feeds: neighbour outputs first (they dominate the connectivity),
         then a rotating window of global PIs so every block also sees
         primary-input variation. *)
      let feeds = ref [] in
      if bx > 0 then
        Array.iter (fun id -> feeds := id :: !feeds) outs.(by).(bx - 1);
      if by > 0 then
        Array.iter (fun id -> feeds := id :: !feeds) outs.(by - 1).(bx);
      let n_block_pi = 4 in
      for p = 0 to n_block_pi - 1 do
        feeds := ((bi + p) mod spec.n_pi) :: !feeds
      done;
      let feeds = Array.of_list (List.rev !feeds) in
      let block =
        Random_logic.make
          {
            Random_logic.name = Printf.sprintf "%s_b%d" spec.name bi;
            n_pi = Array.length feeds;
            n_po = spec.block_po;
            n_gates = spec.gates_per_block;
            seed = spec.seed + (7919 * bi);
            locality = 0.9;
          }
      in
      (* Splice: block PI p becomes feed p, block gates are re-emitted
         with mapped fanins. *)
      let map = Array.make (N.n_nodes block) (-1) in
      Array.iteri (fun p id -> map.(p) <- id) feeds;
      Array.iteri
        (fun gi gate ->
          let fanins = Array.map (fun s -> map.(s)) gate.N.fanins in
          map.(block.N.n_pi + gi) <- B.add_gate b gate.N.cell fanins)
        block.N.gates;
      outs.(by).(bx) <- Array.map (fun o -> map.(o)) block.N.outputs
    done
  done;
  (* Design outputs: merge the unconsumed block outputs (right column and
     bottom row) down to n_po. *)
  let live = Queue.create () in
  for by = 0 to spec.blocks_y - 1 do
    Array.iter (fun id -> Queue.push id live) outs.(by).(spec.blocks_x - 1)
  done;
  for bx = 0 to spec.blocks_x - 2 do
    Array.iter (fun id -> Queue.push id live) outs.(spec.blocks_y - 1).(bx)
  done;
  while Queue.length live > spec.n_po do
    let x = Queue.pop live in
    let y = Queue.pop live in
    Queue.push (B.add_gate b L.or2 [| x; y |]) live
  done;
  let n_live = Queue.length live in
  let outputs = Array.make spec.n_po (-1) in
  for i = 0 to n_live - 1 do
    outputs.(i) <- Queue.pop live
  done;
  (* Tiny grids can come up short of n_po; pad with distinct late nodes. *)
  let next = ref (B.n_nodes b - 1) in
  for i = n_live to spec.n_po - 1 do
    while Array.exists (fun o -> o = !next) outputs do
      decr next
    done;
    outputs.(i) <- !next;
    decr next
  done;
  B.finish b ~outputs

(* Size-parameterized preset family: blocks of 4096 gates arranged on the
   squarest grid covering the requested count, 32 PIs / 32 POs so the
   criticality screen's per-chunk state stays bounded at every size.
   [of_gates 1_000_000] is a 16 x 16 grid = 1,048,576 block gates (plus
   ~250 merge gates) - the million-gate design of the EXPERIMENTS.md
   extraction run - and [of_gates 100_000] is the 5 x 5 = 102,400-gate
   grid of the ledger benchmark's grid100k workload.  Pair with a
   cells_per_tile around 65536 when characterizing, so the correlation
   grid stays small and the PCA dimension stays propagation-friendly. *)
let preset_block_gates = 4096

let of_gates ?(seed = 42) n =
  if n <= 0 then invalid_arg "Large.of_gates: gate count must be positive";
  let nb = (n + preset_block_gates - 1) / preset_block_gates in
  let bx =
    let r = int_of_float (ceil (sqrt (float_of_int nb))) in
    max 1 r
  in
  let by = (nb + bx - 1) / bx in
  let name =
    if n mod 1_000_000 = 0 then Printf.sprintf "grid%dm" (n / 1_000_000)
    else if n mod 1_000 = 0 then Printf.sprintf "grid%dk" (n / 1_000)
    else Printf.sprintf "grid%d" n
  in
  make
    {
      name;
      n_pi = 32;
      n_po = 32;
      blocks_x = bx;
      blocks_y = by;
      gates_per_block = preset_block_gates;
      block_po = 8;
      seed;
    }

let million ?(seed = 42) () = of_gates ~seed 1_000_000
