module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Tile = Ssta_variation.Tile
module Basis = Ssta_variation.Basis
module Correlation = Ssta_variation.Correlation
module Mat = Ssta_linalg.Mat
module Pca = Ssta_linalg.Pca
module Robust = Ssta_robust.Robust

let magic = "hssta-timing-model v1"

(* %h (hex floats) would also round-trip, but %.17g keeps the file readable
   while still being exact for binary64. *)
let f = Printf.sprintf "%.17g"

let floats xs = String.concat " " (Array.to_list (Array.map f xs))

let to_string (m : Timing_model.t) =
  let buf = Buffer.create 65536 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s;
                                   Buffer.add_char buf '\n') fmt in
  let g = m.Timing_model.graph in
  let basis = m.Timing_model.basis in
  let corr = basis.Basis.corr in
  let s = m.Timing_model.stats in
  line "%s" magic;
  line "name %s" m.Timing_model.name;
  line "delta %s" (f m.Timing_model.delta);
  let die = m.Timing_model.die in
  line "die %s %s %s %s" (f die.Tile.x0) (f die.Tile.y0) (f die.Tile.x1)
    (f die.Tile.y1);
  line "stats %d %d %d %d %d %d %s" s.Timing_model.original_edges
    s.Timing_model.original_vertices s.Timing_model.model_edges
    s.Timing_model.model_vertices s.Timing_model.removed_edges
    s.Timing_model.exact_evals
    (f s.Timing_model.extraction_seconds);
  line "corr %s %s %s %s" (f corr.Correlation.var_random)
    (f corr.Correlation.rho_near)
    (f corr.Correlation.var_global)
    (f corr.Correlation.d_far);
  line "params %d" basis.Basis.n_params;
  line "pitch %s" (f basis.Basis.pitch);
  let tiles = basis.Basis.tiles in
  line "tiles %d" (Array.length tiles);
  Array.iter
    (fun t ->
      line "tile %s %s %s %s" (f t.Tile.x0) (f t.Tile.y0) (f t.Tile.x1)
        (f t.Tile.y1))
    tiles;
  let pca = basis.Basis.pca in
  line "pca-values %s" (floats pca.Pca.values);
  line "pca-vectors %d" pca.Pca.dim;
  for i = 0 to pca.Pca.dim - 1 do
    line "%s" (floats (Mat.row pca.Pca.vectors i))
  done;
  line "vertices %d" (Tgraph.n_vertices g);
  line "inputs %d %s"
    (Array.length g.Tgraph.inputs)
    (String.concat " "
       (Array.to_list (Array.map string_of_int g.Tgraph.inputs)));
  line "outputs %d %s"
    (Array.length g.Tgraph.outputs)
    (String.concat " "
       (Array.to_list (Array.map string_of_int g.Tgraph.outputs)));
  line "output-loads %d" (Array.length m.Timing_model.output_load);
  Array.iter
    (fun form ->
      line "load %s %s g %s p %s" (f form.Form.mean) (f form.Form.rand)
        (floats form.Form.globals) (floats form.Form.pcs))
    m.Timing_model.output_load;
  line "edges %d" (Tgraph.n_edges g);
  Array.iteri
    (fun e src ->
      let form = Form_buf.get m.Timing_model.forms e in
      line "edge %d %d %s %s g %s p %s" src g.Tgraph.dst.(e)
        (f form.Form.mean) (f form.Form.rand)
        (floats form.Form.globals)
        (floats form.Form.pcs))
    g.Tgraph.src;
  line "end";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type parser_state = {
  lines : string array;
  mutable pos : int;  (** index of the next unread line *)
  mutable cur : string;  (** text of the line last read (column lookup) *)
}

let nan_sanitized = Robust.counter "robust.nan_sanitized"

(* All parse failures carry a structured line/column position
   ({!Robust.pos}); nothing below may let a raw [Failure]/
   [Invalid_argument]/[Scanf] exception escape (the fuzz suite pins
   this).  The column is best-effort: the first occurrence of the
   offending token on the current line (1 when unknown), which is exact
   here because the format never repeats a malformed token before its
   first offense matters. *)
let find_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 || nl > hl then None
  else
    let rec at i =
      if i + nl > hl then None
      else if String.sub hay i nl = needle then Some i
      else at (i + 1)
    in
    at 0

let position ?tok st =
  let line = if st.pos = 0 then 1 else st.pos in
  let col =
    match tok with
    | Some t when t <> "" -> (
        match find_sub st.cur t with Some i -> i + 1 | None -> 1)
    | _ -> 1
  in
  { Robust.line; col }

let fail_at ?tok st msg =
  let pos = position ?tok st in
  Robust.fail ~subsystem:"model_io" ~operation:"parse"
    ~indices:[ pos.Robust.line ] ~pos msg

let next_line st =
  if st.pos >= Array.length st.lines then fail_at st "unexpected end of file";
  let l = st.lines.(st.pos) in
  st.pos <- st.pos + 1;
  st.cur <- l;
  l

let tokens_of st line =
  match String.split_on_char ' ' (String.trim line) with
  | [] -> fail_at st "empty line"
  | toks -> List.filter (fun t -> t <> "") toks

let expect st key =
  let line = next_line st in
  match tokens_of st line with
  | k :: rest when k = key -> rest
  | k :: _ ->
      fail_at ~tok:k st (Printf.sprintf "expected '%s', found '%s'" key k)
  | [] -> fail_at st (Printf.sprintf "expected '%s' on empty line" key)

let int_of st s =
  try int_of_string s with _ -> fail_at ~tok:s st ("not an integer: " ^ s)

let nat_of st s =
  let n = int_of st s in
  if n < 0 then fail_at ~tok:s st ("negative count: " ^ s);
  n

(* Validated boundary: serialized floats must be finite.  A "nan"/"inf"
   token (file corruption - the writer only emits finite %.17g values)
   fails with line/column context under Strict and parses as 0.0, counted
   in robust.nan_sanitized, under Repair/Warn. *)
let float_of st s =
  match float_of_string_opt s with
  | None -> fail_at ~tok:s st ("not a float: " ^ s)
  | Some v ->
      if Robust.is_finite v then v
      else begin
        let pos = position ~tok:s st in
        Robust.repair nan_sanitized
          (Robust.context ~subsystem:"model_io" ~operation:"parse"
             ~indices:[ pos.Robust.line ] ~values:[ v ] ~pos
             ("non-finite value: " ^ s));
        0.0
      end

let one st = function
  | [ x ] -> x
  | _ -> fail_at st "expected exactly one value"

let parse st =
  let header = next_line st in
  if String.trim header <> magic then
    fail_at st (Printf.sprintf "bad magic; expected %S" magic);
  let name =
    match expect st "name" with
    | [] -> fail_at st "missing model name"
    | parts -> String.concat " " parts
  in
  let delta = float_of st (one st (expect st "delta")) in
  let die =
    match expect st "die" with
    | [ a; b; c; d ] ->
        Tile.make ~x0:(float_of st a) ~y0:(float_of st b)
          ~x1:(float_of st c) ~y1:(float_of st d)
    | _ -> fail_at st "die expects 4 floats"
  in
  let stats =
    match expect st "stats" with
    | [ a; b; c; d; e; ev; t ] ->
        {
          Timing_model.original_edges = int_of st a;
          original_vertices = int_of st b;
          model_edges = int_of st c;
          model_vertices = int_of st d;
          removed_edges = int_of st e;
          exact_evals = int_of st ev;
          extraction_seconds = float_of st t;
        }
    | _ -> fail_at st "stats expects 7 values"
  in
  let corr =
    match expect st "corr" with
    | [ vr; rn; rf; df ] ->
        Correlation.make ~var_random:(float_of st vr)
          ~rho_near:(float_of st rn) ~rho_far:(float_of st rf)
          ~d_far:(float_of st df) ()
    | _ -> fail_at st "corr expects 4 floats"
  in
  let n_params = nat_of st (one st (expect st "params")) in
  let pitch = float_of st (one st (expect st "pitch")) in
  let n_tiles = nat_of st (one st (expect st "tiles")) in
  let tiles =
    Array.init n_tiles (fun _ ->
        match expect st "tile" with
        | [ a; b; c; d ] ->
            Tile.make ~x0:(float_of st a) ~y0:(float_of st b)
              ~x1:(float_of st c) ~y1:(float_of st d)
        | _ -> fail_at st "tile expects 4 floats")
  in
  let values =
    Array.of_list (List.map (float_of st) (expect st "pca-values"))
  in
  if Array.length values <> n_tiles then
    fail_at st "pca-values count does not match tiles";
  let dim = nat_of st (one st (expect st "pca-vectors")) in
  if dim <> n_tiles then fail_at st "pca dimension does not match tiles";
  let vectors =
    Mat.of_arrays
      (Array.init dim (fun _ ->
           let row =
             Array.of_list
               (List.map (float_of st) (tokens_of st (next_line st)))
           in
           if Array.length row <> dim then
             fail_at st "pca vector row has wrong arity";
           row))
  in
  let pca = Pca.of_parts ~values ~vectors in
  let basis = Basis.of_parts ~n_params ~corr ~pitch ~tiles ~pca in
  let n_vertices = nat_of st (one st (expect st "vertices")) in
  let id_list key =
    match expect st key with
    | count :: ids ->
        let n = nat_of st count in
        let ids = Array.of_list (List.map (int_of st) ids) in
        if Array.length ids <> n then
          fail_at st (key ^ " count does not match ids");
        ids
    | [] -> fail_at st ("empty " ^ key)
  in
  let inputs = id_list "inputs" in
  let outputs = id_list "outputs" in
  let n_globals = n_params in
  let n_pcs = n_params * n_tiles in
  let parse_form what mean rand rest =
    let rec split_globals k acc = function
      | "p" :: pcs when k = n_globals -> (List.rev acc, pcs)
      | x :: rest when k < n_globals ->
          split_globals (k + 1) (float_of st x :: acc) rest
      | _ -> fail_at st (what ^ " coefficient arity mismatch")
    in
    let globals, pcs_tok = split_globals 0 [] rest in
    let pcs = Array.of_list (List.map (float_of st) pcs_tok) in
    if Array.length pcs <> n_pcs then
      fail_at st (what ^ " PC coefficient arity mismatch");
    Form.make ~mean:(float_of st mean)
      ~globals:(Array.of_list globals)
      ~pcs ~rand:(float_of st rand)
  in
  let n_loads = nat_of st (one st (expect st "output-loads")) in
  if n_loads <> Array.length outputs then
    fail_at st "output-load count does not match outputs";
  let output_load =
    Array.init n_loads (fun _ ->
        match expect st "load" with
        | mean :: rand :: "g" :: rest -> parse_form "load" mean rand rest
        | _ -> fail_at st "malformed load line")
  in
  let n_edges = nat_of st (one st (expect st "edges")) in
  let edges = Array.make n_edges (0, 0) in
  (* One line per edge: a count beyond the lines left fails on reaching
     the end, so the slab never needs more slots than the text holds. *)
  let forms =
    Form_buf.create basis.Basis.dims
      (min n_edges (Array.length st.lines - st.pos))
  in
  for e = 0 to n_edges - 1 do
    match expect st "edge" with
    | src :: dst :: mean :: rand :: "g" :: rest ->
        let src = int_of st src and dst = int_of st dst in
        edges.(e) <- (src, dst);
        Form_buf.set forms e (parse_form "edge" mean rand rest)
    | _ -> fail_at st "malformed edge line"
  done;
  (match expect st "end" with
  | [] -> ()
  | _ -> fail_at st "trailing tokens after 'end'");
  let graph = Tgraph.make ~n_vertices ~edges ~inputs ~outputs in
  { Timing_model.name; graph; forms; basis; die; delta; output_load; stats }

let of_string text =
  let st =
    { lines = Array.of_list (String.split_on_char '\n' text); pos = 0; cur = "" }
  in
  (* Catch-all: token mutations can trip validation deep inside the model
     constructors (Tile.make, Correlation.make, Pca.of_parts, Form.make,
     ...) as bare Failure/Invalid_argument; rewrap them with the current
     line position.  Structured errors (including Tgraph's) already name
     their site and pass through. *)
  try parse st with
  | Robust.Error _ as e -> raise e
  | Failure msg | Invalid_argument msg ->
      fail_at st ("invalid model data: " ^ msg)

let save m ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      of_string contents)
