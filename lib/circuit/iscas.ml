type paper_counts = { eo : int; vo : int }

let names =
  [|
    "c432"; "c499"; "c880"; "c1355"; "c1908"; "c2670"; "c3540"; "c5315";
    "c6288"; "c7552";
  |]

let random ~name ~n_pi ~n_po ~n_gates ~seed ~locality =
  Random_logic.make
    { Random_logic.name; n_pi; n_po; n_gates; seed; locality }

(* PI/PO/gate counts follow Hansen et al., "Unveiling the ISCAS-85
   benchmarks" (the paper's reference [21]); the vertex counts of Table I
   equal gates + PIs, confirming the gate-level timing-graph convention. *)
let build = function
  | "c432" -> Priority.make ~name:"c432" ()
  | "c499" -> Ecc.make ~name:"c499" ~expand_xor:false ()
  | "c880" ->
      random ~name:"c880" ~n_pi:60 ~n_po:26 ~n_gates:378 ~seed:880
        ~locality:0.8
  | "c1355" -> Ecc.make ~name:"c1355" ~expand_xor:true ()
  | "c1908" ->
      random ~name:"c1908" ~n_pi:33 ~n_po:25 ~n_gates:875 ~seed:1908
        ~locality:0.85
  | "c2670" ->
      random ~name:"c2670" ~n_pi:233 ~n_po:140 ~n_gates:1180 ~seed:2670
        ~locality:0.75
  | "c3540" ->
      random ~name:"c3540" ~n_pi:50 ~n_po:22 ~n_gates:1664 ~seed:3540
        ~locality:0.85
  | "c5315" ->
      random ~name:"c5315" ~n_pi:178 ~n_po:123 ~n_gates:2295 ~seed:5315
        ~locality:0.8
  | "c6288" -> Multiplier.make ~name:"c6288" ~bits:16 ()
  | "c7552" ->
      random ~name:"c7552" ~n_pi:207 ~n_po:108 ~n_gates:3500 ~seed:7552
        ~locality:0.8
  | name -> invalid_arg ("Iscas.build: unknown circuit " ^ name)

let paper_row = function
  | "c432" -> { eo = 336; vo = 196 }
  | "c499" -> { eo = 408; vo = 243 }
  | "c880" -> { eo = 729; vo = 443 }
  | "c1355" -> { eo = 1064; vo = 587 }
  | "c1908" -> { eo = 1498; vo = 913 }
  | "c2670" -> { eo = 2076; vo = 1426 }
  | "c3540" -> { eo = 2939; vo = 1719 }
  | "c5315" -> { eo = 4386; vo = 2485 }
  | "c6288" -> { eo = 4800; vo = 2448 }
  | "c7552" -> { eo = 6144; vo = 3719 }
  | name -> invalid_arg ("Iscas.paper_row: unknown circuit " ^ name)

let all () = Array.to_list names |> List.map (fun n -> (n, build n))

type resolve_error = Bad_bench of string | Unknown of string

let resolve name =
  if Filename.check_suffix name ".bench" && Sys.file_exists name then
    try Ok (Bench_format.load ~path:name) with Failure m -> Error (Bad_bench m)
  else try Ok (build name) with Invalid_argument m -> Error (Unknown m)
