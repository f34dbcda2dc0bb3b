module Robust = Ssta_robust.Robust
module Rng = Ssta_gauss.Rng
module Json = Ssta_json.Json
module F = Ssta_frontend

type format = Verilog | Liberty | Sdc
type klass = Byte_truncate | Token_mutate | Line_shuffle

let format_name = function
  | Verilog -> "verilog"
  | Liberty -> "liberty"
  | Sdc -> "sdc"

let klass_name = function
  | Byte_truncate -> "byte_truncate"
  | Token_mutate -> "token_mutate"
  | Line_shuffle -> "line_shuffle"

type verdict = {
  format : format;
  klass : klass;
  case : int;
  policy : Robust.policy;
  outcome : string;
  ok : bool;
  detail : string;
}

type ctx = {
  circuit : string;
  verilog_doc : string;
  liberty_doc : string;
  sdc_doc : string;
  lib : F.Liberty.t;
}

(* A representative constraint set over the exported net names: clock,
   one input and one output delay, one false path. *)
let base_sdc (nl : Ssta_circuit.Netlist.t) =
  let net i = Printf.sprintf "n%d" i in
  let out0 = nl.Ssta_circuit.Netlist.outputs.(0) in
  {
    F.Sdc.clocks = [ { F.Sdc.clk_name = "clk"; period = 250.0 } ];
    input_delays =
      [ { F.Sdc.ports = [ net 0 ]; delay = 10.0; dclock = Some "clk" } ];
    output_delays =
      [ { F.Sdc.ports = [ net out0 ]; delay = 10.0; dclock = None } ];
    false_paths =
      [ { F.Sdc.from_ports = [ net 0 ]; to_ports = [ net out0 ] } ];
  }

let make_ctx circuit =
  let nl = Ssta_circuit.Iscas.build circuit in
  let d = F.Design.of_netlist ~sdc:(base_sdc nl) nl in
  let verilog_doc = F.Verilog.to_string d.F.Design.modul in
  let liberty_doc = F.Liberty.to_string d.F.Design.lib in
  let sdc_doc = F.Sdc.to_string d.F.Design.sdc in
  (* The corpus must start from accepted inputs: the clean documents
     parse (and the Verilog lowers back) without error or repair. *)
  Robust.with_policy Robust.Strict (fun () ->
      let m = F.Verilog.parse verilog_doc in
      let lib = F.Liberty.parse liberty_doc in
      ignore
        (F.Design.lower { F.Design.modul = m; lib; sdc = F.Sdc.empty });
      ignore (F.Sdc.parse sdc_doc);
      { circuit; verilog_doc; liberty_doc; sdc_doc; lib })

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)

let byte_truncate rng doc =
  let n = String.length doc in
  if n <= 1 then doc else String.sub doc 0 (1 + Rng.int rng (n - 1))

(* Characters that matter to at least one of the three grammars, so a
   mutation lands on a structural element more often than random bytes
   would. *)
let interesting =
  "(){};:,.\"/*#-\\ \t\nmoduleinputoutputwirecellpintiming0123456789eE_"

let token_mutate rng doc =
  if String.length doc = 0 then doc
  else begin
    let b = Bytes.of_string doc in
    let edits = 1 + Rng.int rng 4 in
    for _ = 1 to edits do
      let i = Rng.int rng (Bytes.length b) in
      Bytes.set b i interesting.[Rng.int rng (String.length interesting)]
    done;
    Bytes.to_string b
  end

let line_shuffle rng doc =
  let lines = Array.of_list (String.split_on_char '\n' doc) in
  let n = Array.length lines in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = lines.(i) in
    lines.(i) <- lines.(j);
    lines.(j) <- tmp
  done;
  String.concat "\n" (Array.to_list lines)

let mutate klass rng doc =
  match klass with
  | Byte_truncate -> byte_truncate rng doc
  | Token_mutate -> token_mutate rng doc
  | Line_shuffle -> line_shuffle rng doc

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)

let parse_of ctx = function
  | Verilog ->
      fun doc ->
        let m = F.Verilog.parse doc in
        ignore
          (F.Design.lower
             { F.Design.modul = m; lib = ctx.lib; sdc = F.Sdc.empty })
  | Liberty -> fun doc -> ignore (F.Liberty.parse doc)
  | Sdc -> fun doc -> ignore (F.Sdc.parse doc)

let doc_of ctx = function
  | Verilog -> ctx.verilog_doc
  | Liberty -> ctx.liberty_doc
  | Sdc -> ctx.sdc_doc

let format_ix = function Verilog -> 0 | Liberty -> 1 | Sdc -> 2
let klass_ix = function
  | Byte_truncate -> 0
  | Token_mutate -> 1
  | Line_shuffle -> 2

let policy_ix = function Robust.Strict -> 0 | Robust.Repair -> 1 | Robust.Warn -> 2

let repair_total () =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (Robust.counters ())

let run_case ctx ~seed ~format ~klass ~case ~policy =
  let index =
    (((format_ix format * 3) + klass_ix klass) * 3 + policy_ix policy)
    * 100000
    + case
  in
  let rng = Rng.stream ~seed ~index in
  let doc = mutate klass rng (doc_of ctx format) in
  let parse = parse_of ctx format in
  Robust.with_policy policy (fun () ->
      Robust.reset ();
      let outcome, ok, detail =
        match parse doc with
        | () ->
            if repair_total () > 0 then ("repaired", true, "") else ("ok", true, "")
        | exception Robust.Error c ->
            if
              String.length c.Robust.subsystem >= 9
              && String.sub c.Robust.subsystem 0 9 = "frontend."
            then ("error", true, Robust.to_string c)
            else
              ( "error",
                false,
                "structured error from foreign subsystem: "
                ^ Robust.to_string c )
        | exception e -> ("crash", false, Printexc.to_string e)
      in
      { format; klass; case; policy; outcome; ok; detail })

let run_corpus ctx ~seed ~cases_per_class =
  List.concat_map
    (fun format ->
      List.concat_map
        (fun klass ->
          List.concat_map
            (fun policy ->
              List.init cases_per_class (fun case ->
                  run_case ctx ~seed ~format ~klass ~case ~policy))
            [ Robust.Strict; Robust.Repair ])
        [ Byte_truncate; Token_mutate; Line_shuffle ])
    [ Verilog; Liberty; Sdc ]

let all_pass vs = List.for_all (fun v -> v.ok) vs

let summary vs =
  let b = Buffer.create 256 in
  List.iter
    (fun format ->
      let mine = List.filter (fun v -> v.format = format) vs in
      let count o =
        List.length (List.filter (fun v -> v.outcome = o) mine)
      in
      Buffer.add_string b
        (Printf.sprintf
           "%-8s %5d cases: %5d ok, %5d repaired, %5d error, %d escaped\n"
           (format_name format) (List.length mine) (count "ok")
           (count "repaired") (count "error")
           (List.length (List.filter (fun v -> not v.ok) mine))))
    [ Verilog; Liberty; Sdc ];
  Buffer.contents b

let jsonl_of_verdicts vs =
  let line v =
    Json.to_string
      (Json.Obj
         [
           ("format", Json.Str (format_name v.format));
           ("class", Json.Str (klass_name v.klass));
           ("case", Json.Num (float_of_int v.case));
           ("policy", Json.Str (Robust.policy_name v.policy));
           ("outcome", Json.Str v.outcome);
           ("ok", Json.Bool v.ok);
           ("detail", Json.Str v.detail);
         ])
  in
  String.concat "\n" (List.map line vs) ^ "\n"
