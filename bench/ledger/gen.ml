(* Seeded workload inputs.  The program under test only ever sees what
   these functions produce: design text (structural Verilog, a
   Liberty-like library, SDC), request lines and arrival schedules.  Each
   is a pure function of its arguments. *)

module N = Ssta_circuit.Netlist
module Build = Ssta_timing.Build
module D = Ssta_frontend.Design
module Sdc = Ssta_frontend.Sdc
module Json = Ssta_json.Json
module Rng = Ssta_gauss.Rng

type text = { name : string; verilog : string; liberty : string; sdc : string }

let text_bytes t =
  String.length t.verilog + String.length t.liberty + String.length t.sdc

(* The `hssta emit` recipe: clock period 1.25x and IO delays 0.05x the
   nominal critical delay (both rounded), one false path from the first
   input to the first output. *)
let design_text ?cells_per_tile nl =
  let b = Build.characterize ?cells_per_tile nl in
  let nominal =
    Ssta_timing.Sta.design_delay b.Build.graph ~weights:(Build.nominal_weights b)
  in
  let period = Float.round (1.25 *. nominal) in
  let io_delay = Float.round (0.05 *. nominal) in
  let net i = Printf.sprintf "n%d" i in
  let inputs = List.init (N.n_pis nl) net in
  let outputs = Array.to_list (Array.map net nl.N.outputs) in
  let sdc =
    {
      Sdc.clocks = [ { Sdc.clk_name = "clk"; period } ];
      input_delays = [ { Sdc.ports = inputs; delay = io_delay; dclock = Some "clk" } ];
      output_delays =
        [ { Sdc.ports = outputs; delay = io_delay; dclock = Some "clk" } ];
      false_paths =
        [ { Sdc.from_ports = [ List.hd inputs ]; to_ports = [ List.hd outputs ] } ];
    }
  in
  let d = D.of_netlist ~sdc nl in
  {
    name = nl.N.name;
    verilog = Ssta_frontend.Verilog.to_string d.D.modul;
    liberty = Ssta_frontend.Liberty.to_string d.D.lib;
    sdc = Sdc.to_string d.D.sdc;
  }

(* Characterization grid for the synthetic grid designs: one correlation
   tile per 65536 cells keeps the PCA dimension bounded at scale. *)
let grid_cells_per_tile = 65536

let grid_text ~seed ~gates =
  design_text ~cells_per_tile:grid_cells_per_tile
    (Ssta_circuit.Large.of_gates ~seed gates)

(* ---- the 3x3 chain of hier-soc ---------------------------------------- *)

(* Column c row r feeds column c+1 row (r + shift) mod 3. *)
let soc_shift ~seed = Rng.int (Rng.create ~seed) 3

(* ---- serve-eco requests ----------------------------------------------- *)

type kind = Quantile | Whatif | Scenario | Paths | Report | Commit | Revert

let kind_name = function
  | Quantile -> "quantile"
  | Whatif -> "whatif"
  | Scenario -> "scenario"
  | Paths -> "paths"
  | Report -> "report"
  | Commit -> "commit"
  | Revert -> "revert"

(* The ECO mix, in requests per thousand: mostly plain quantiles and
   transient what-ifs, the rest scenario quantiles, path and report
   queries, and committed what-ifs now and then undone by a revert. *)
let mix =
  [
    (Quantile, 500);
    (Whatif, 250);
    (Scenario, 100);
    (Paths, 50);
    (Report, 50);
    (Commit, 40);
    (Revert, 10);
  ]

let scenarios =
  Array.map
    (fun (corner, scale) ->
      Json.Obj [ ("corner", Json.Str corner); ("delay_scale", Json.Num scale) ])
    [|
      ("nominal", 1.0);
      ("slow", 1.0);
      ("fast", 1.0);
      ("global_slow", 1.0);
      ("nominal", 1.05);
      ("slow", 1.1);
    |]

let draw_kind rng =
  let r = Rng.int rng 1000 in
  let rec go acc = function
    | [ (k, _) ] -> k
    | (k, w) :: rest -> if r < acc + w then k else go (acc + w) rest
    | [] -> assert false
  in
  go 0 mix

(* One edit on a late-topological edge: shallow fanout cones are the ECO
   case the incremental path serves. *)
let edit rng ~n_edges =
  let edge = (n_edges / 2) + Rng.int rng (n_edges - (n_edges / 2)) in
  Json.Arr
    [
      Json.Obj
        [
          ("edge", Json.Num (float_of_int edge));
          ("scale", Json.Num (1.0 +. Float.round (Rng.uniform rng *. 100.0) /. 100.0));
        ];
    ]

let request rng ~n_edges ~id kind =
  let op name fields =
    Json.to_string
      (Json.Obj
         ((("id", Json.Num (float_of_int id)) :: [ ("op", Json.Str name) ])
         @ fields))
  in
  match kind with
  | Quantile -> op "quantile" [ ("yield", Json.Num 0.99) ]
  | Scenario ->
      op "quantile"
        [ ("scenario", scenarios.(Rng.int rng (Array.length scenarios))) ]
  | Whatif -> op "whatif" [ ("edits", edit rng ~n_edges) ]
  | Commit -> op "whatif" [ ("edits", edit rng ~n_edges); ("commit", Json.Bool true) ]
  | Paths -> op "paths" [ ("k", Json.Num 5.0) ]
  | Report -> op "report" []
  | Revert -> op "revert" []

(* [requests ~seed ~stream ~n_edges ~first_id n]: [n] request lines with
   ids from [first_id]; independent phases use distinct [stream]s. *)
let requests ~seed ~stream ~n_edges ~first_id n =
  let rng = Rng.stream ~seed ~index:stream in
  Array.init n (fun i ->
      let kind = draw_kind rng in
      (kind, request rng ~n_edges ~id:(first_id + i) kind))

(* Poisson arrival offsets in [0, duration) at [rate] per second. *)
let arrivals ~seed ~stream ~rate ~duration =
  let rng = Rng.stream ~seed ~index:stream in
  let rec go t acc =
    let t = t -. (log (1.0 -. Rng.uniform rng) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []
