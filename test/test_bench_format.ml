(* Tests for the ISCAS85 .bench reader/writer. *)

module BF = Ssta_circuit.Bench_format
module N = Ssta_circuit.Netlist

let c17 =
  {|# c17 (the classic 6-gate example)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
|}

let test_parse_c17 () =
  let nl = BF.parse ~name:"c17" c17 in
  N.validate nl;
  Alcotest.(check int) "pis" 5 (N.n_pis nl);
  Alcotest.(check int) "pos" 2 (N.n_pos nl);
  Alcotest.(check int) "gates" 6 (N.n_gates nl);
  Alcotest.(check int) "edges" 12 (N.n_edges nl);
  Alcotest.(check int) "depth" 3 (N.depth nl)

let test_parse_out_of_order () =
  (* Definitions before their fanins are defined - legal in .bench. *)
  let text =
    "INPUT(a)\nOUTPUT(z)\nz = NOT(y)\ny = AND(a, a)\n"
  in
  let nl = BF.parse ~name:"ooo" text in
  N.validate nl;
  Alcotest.(check int) "gates" 2 (N.n_gates nl);
  Alcotest.(check int) "depth" 2 (N.depth nl)

let test_parse_wide_gates () =
  let text =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(z)\n\
     z = NAND(a, b, c, d, e)\n"
  in
  let nl = BF.parse ~name:"wide" text in
  N.validate nl;
  (* 5-input NAND decomposes into an AND tree plus a final NAND2. *)
  Alcotest.(check bool) "decomposed" true (N.n_gates nl > 1);
  Alcotest.(check int) "single output" 1 (N.n_pos nl)

let test_parse_rejects () =
  let cases =
    [
      ("missing inputs", "OUTPUT(z)\nz = NOT(z)\n");
      ("undefined signal", "INPUT(a)\nOUTPUT(z)\nz = AND(a, q)\n");
      ("cycle", "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n");
      ("redefinition", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUFF(a)\n");
      ("input redefined", "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n");
      ("syntax", "INPUT(a)\nOUTPUT(z)\nz NOT a\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      Alcotest.(check bool)
        name true
        (try
           ignore (BF.parse ~name:"bad" text);
           false
         with Failure _ -> true))
    cases

let test_roundtrip_generated () =
  (* Writer -> parser round-trips our generated circuits structurally. *)
  List.iter
    (fun nl ->
      let nl' = BF.parse ~name:nl.N.name (BF.to_string nl) in
      N.validate nl';
      Alcotest.(check int) (nl.N.name ^ " pis") (N.n_pis nl) (N.n_pis nl');
      Alcotest.(check int) (nl.N.name ^ " pos") (N.n_pos nl) (N.n_pos nl');
      Alcotest.(check int) (nl.N.name ^ " gates") (N.n_gates nl) (N.n_gates nl');
      Alcotest.(check int) (nl.N.name ^ " edges") (N.n_edges nl) (N.n_edges nl');
      Alcotest.(check int) (nl.N.name ^ " depth") (N.depth nl) (N.depth nl'))
    [
      Ssta_circuit.Iscas.build "c432";
      Ssta_circuit.Iscas.build "c499";
      Ssta_circuit.Adder.carry_select ~bits:8 ~block:2 ();
    ]

let test_roundtrip_preserves_timing () =
  (* The round-tripped netlist has the same SSTA results up to gate
     (re)ordering: the parser's topological sort may renumber gates, which
     moves placement coordinates and hence grid assignments slightly. *)
  let nl = Ssta_circuit.Iscas.build "c432" in
  let nl' = BF.parse ~name:"c432" (BF.to_string nl) in
  let delay n =
    let b = Ssta_timing.Build.characterize n in
    match
      Hier_ssta.Propagate.circuit_delay b.Ssta_timing.Build.graph
        ~forms:b.Ssta_timing.Build.forms
    with
    | Some f -> (f.Ssta_canonical.Form.mean, Ssta_canonical.Form.std f)
    | None -> Alcotest.fail "unreachable"
  in
  let m, s = delay nl and m', s' = delay nl' in
  Alcotest.(check (float (0.002 *. m))) "mean preserved" m m';
  Alcotest.(check (float (0.02 *. s))) "sigma preserved" s s'

let test_file_io () =
  let nl = Ssta_circuit.Adder.ripple ~bits:4 () in
  let path = Filename.temp_file "hssta" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      BF.save nl ~path;
      let nl' = BF.load ~path in
      Alcotest.(check int) "gates" (N.n_gates nl) (N.n_gates nl'))

let suites =
  [
    ( "circuit.bench_format",
      [
        Alcotest.test_case "parse c17" `Quick test_parse_c17;
        Alcotest.test_case "out-of-order defs" `Quick test_parse_out_of_order;
        Alcotest.test_case "wide gates" `Quick test_parse_wide_gates;
        Alcotest.test_case "rejects malformed" `Quick test_parse_rejects;
        Alcotest.test_case "roundtrip structure" `Quick
          test_roundtrip_generated;
        Alcotest.test_case "roundtrip timing" `Quick
          test_roundtrip_preserves_timing;
        Alcotest.test_case "file io" `Quick test_file_io;
      ] );
  ]
