module Form_buf = Ssta_canonical.Form_buf
module N = Ssta_circuit.Netlist
module Cell = Ssta_cell.Cell
module Grid = Ssta_variation.Grid
module Basis = Ssta_variation.Basis
module Correlation = Ssta_variation.Correlation
module Tile = Ssta_variation.Tile

type sparse_edge = {
  nominal : float;
  sens : float array;
  tile : int;
  random_sigma : float;
}

type t = {
  netlist : N.t;
  placement : Ssta_circuit.Placement.t;
  grid : Grid.t;
  basis : Basis.t;
  graph : Tgraph.t;
  forms : Form_buf.t;
  sparse : sparse_edge array;
  gate_tile : int array;
}

let characterize ?(corr = Correlation.default) ?(cells_per_tile = 100) nl =
  Ssta_obs.Obs.with_span "build.characterize" @@ fun () ->
  let placement = Ssta_circuit.Placement.place nl in
  let die = placement.Ssta_circuit.Placement.die in
  let pitch =
    Grid.pitch_for_cell_budget ~n_cells:(N.n_gates nl) ~cells_per_tile
      ~cell_pitch:1.0
  in
  let grid =
    Grid.make ~x0:die.Tile.x0 ~y0:die.Tile.y0 ~width:(Tile.width die)
      ~height:(Tile.height die) ~pitch
  in
  let n_params = Array.length Ssta_cell.Library.params in
  let basis = Basis.make ~n_params ~corr ~pitch grid.Grid.tiles in
  let graph = Tgraph.of_netlist nl in
  let gate_tile =
    Array.map
      (fun pos -> Grid.index_of_point grid pos)
      placement.Ssta_circuit.Placement.positions
  in
  let fanouts = N.fanout_counts nl in
  let n_pi = N.n_pis nl in
  (* Edges appear in gate order with pins in fanin order (Tgraph.of_netlist
     preserves netlist order), so we can rebuild the per-edge cell context by
     walking gates in lockstep. *)
  let m = Tgraph.n_edges graph in
  let forms = Form_buf.create basis.Basis.dims m in
  let sparse =
    Array.make m { nominal = 0.0; sens = [||]; tile = 0; random_sigma = 0.0 }
  in
  let e = ref 0 in
  Array.iteri
    (fun g gate ->
      let cell = gate.N.cell in
      let v = n_pi + g in
      let fanout = max fanouts.(v) 1 in
      let tile = gate_tile.(g) in
      Array.iteri
        (fun pin _src ->
          let nominal = Cell.arc_delay cell ~fanout ~pin in
          let load_sigma = nominal *. cell.Cell.load_sens in
          Form_buf.set forms !e
            (Basis.delay_form basis ~nominal ~tile ~sens:cell.Cell.sens
               ~extra_random_sigma:load_sigma);
          let vr = corr.Correlation.var_random in
          let rand_var =
            Array.fold_left
              (fun acc s -> acc +. (nominal *. s *. nominal *. s *. vr))
              (load_sigma *. load_sigma) cell.Cell.sens
          in
          sparse.(!e) <-
            {
              nominal;
              sens = cell.Cell.sens;
              tile;
              random_sigma = sqrt rand_var;
            };
          incr e)
        gate.N.fanins)
    nl.N.gates;
  assert (!e = m);
  { netlist = nl; placement; grid; basis; graph; forms; sparse; gate_tile }

let nominal_weights t = Array.map (fun s -> s.nominal) t.sparse
