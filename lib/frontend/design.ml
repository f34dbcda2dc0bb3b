module Robust = Ssta_robust.Robust
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module N = Ssta_circuit.Netlist
module Cell = Ssta_cell.Cell
module Tgraph = Ssta_timing.Tgraph
module Build = Ssta_timing.Build
module Sta = Ssta_timing.Sta
module Propagate = Hier_ssta.Propagate
module Path_report = Hier_ssta.Path_report

type t = { modul : Verilog.t; lib : Liberty.t; sdc : Sdc.t }

type lowered = {
  design : t;
  netlist : N.t;
  net_names : string array;
}

let subsystem = "frontend.design"
let repairs = Robust.counter "robust.frontend_repairs"

let parse ~verilog ~liberty ?sdc () =
  {
    modul = Verilog.parse verilog;
    lib = Liberty.parse liberty;
    sdc = (match sdc with Some s -> Sdc.parse s | None -> Sdc.empty);
  }

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Robust.fail ~subsystem ~operation:"load" ("cannot read file: " ^ msg)

let load_files ~verilog ~liberty ?sdc () =
  parse ~verilog:(read_file verilog) ~liberty:(read_file liberty)
    ?sdc:(Option.map read_file sdc) ()

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)

let fail ?pos fmt =
  Printf.ksprintf (fun s -> Robust.fail ~subsystem ~operation:"lower" ?pos s)
    fmt

type decl = Dinput of int | Doutput | Dwire

(* Declaration-index min-heap: the tie-break that makes Kahn stable. *)
module Heap = struct
  type h = { mutable a : int array; mutable size : int }

  let create n = { a = Array.make (max n 1) 0; size = 0 }

  let push h v =
    if h.size = Array.length h.a then begin
      let a' = Array.make (2 * h.size) 0 in
      Array.blit h.a 0 a' 0 h.size;
      h.a <- a'
    end;
    h.a.(h.size) <- v;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      h.a.(p) > h.a.(!i)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    let top = h.a.(0) in
    h.size <- h.size - 1;
    h.a.(0) <- h.a.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.size && h.a.(l) < h.a.(!m) then m := l;
      if r < h.size && h.a.(r) < h.a.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = h.a.(!m) in
        h.a.(!m) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !m
      end
    done;
    top
end

type rinst = {
  lc : Liberty.lcell;
  out_net : string;
  in_nets : string array;
  rpos : Robust.pos;
}

let resolve_instance lib (inst : Verilog.instance) =
  let lc =
    match Liberty.find lib inst.Verilog.cell with
    | Some lc -> lc
    | None ->
        fail ~pos:inst.Verilog.ipos "unknown cell '%s' (instance '%s')"
          inst.Verilog.cell inst.Verilog.inst
  in
  let n_in = Array.length lc.Liberty.pins in
  match inst.Verilog.conns with
  | Verilog.Positional nets ->
      let nets = Array.of_list nets in
      if Array.length nets <> n_in + 1 then
        fail ~pos:inst.Verilog.ipos
          "instance '%s' of cell '%s' has %d connections, expected %d"
          inst.Verilog.inst inst.Verilog.cell (Array.length nets) (n_in + 1);
      {
        lc;
        out_net = nets.(0);
        in_nets = Array.sub nets 1 n_in;
        rpos = inst.Verilog.ipos;
      }
  | Verilog.Named pins ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (p, n) ->
          if Hashtbl.mem tbl p then
            fail ~pos:inst.Verilog.ipos
              "instance '%s' connects pin '%s' twice" inst.Verilog.inst p;
          Hashtbl.add tbl p n)
        pins;
      List.iter
        (fun (p, _) ->
          if p <> lc.Liberty.out_pin
             && not (Array.exists (fun q -> q = p) lc.Liberty.pins)
          then
            fail ~pos:inst.Verilog.ipos
              "instance '%s': cell '%s' has no pin '%s'" inst.Verilog.inst
              lc.Liberty.cname p)
        pins;
      let out_net =
        match Hashtbl.find_opt tbl lc.Liberty.out_pin with
        | Some n -> n
        | None ->
            fail ~pos:inst.Verilog.ipos
              "instance '%s': output pin '%s' not connected"
              inst.Verilog.inst lc.Liberty.out_pin
      in
      let in_nets =
        Array.map
          (fun p ->
            match Hashtbl.find_opt tbl p with
            | Some n -> n
            | None ->
                fail ~pos:inst.Verilog.ipos
                  "instance '%s': input pin '%s' not connected"
                  inst.Verilog.inst p)
          lc.Liberty.pins
      in
      { lc; out_net; in_nets; rpos = inst.Verilog.ipos }

let lower d =
  let m = d.modul in
  let declared = Hashtbl.create 64 in
  let declare kind n =
    if Hashtbl.mem declared n then fail "net '%s' declared more than once" n;
    Hashtbl.add declared n kind
  in
  List.iteri (fun i n -> declare (Dinput i) n) m.Verilog.inputs;
  List.iter (declare Doutput) m.Verilog.outputs;
  List.iter (declare Dwire) m.Verilog.wires;
  List.iter
    (fun p ->
      if not (Hashtbl.mem declared p) then
        fail "port '%s' is neither an input nor an output" p)
    m.Verilog.ports;
  let n_pi = List.length m.Verilog.inputs in
  let insts =
    Array.of_list (List.map (resolve_instance d.lib) m.Verilog.instances)
  in
  let n_inst = Array.length insts in
  (* Implicit nets are legal Verilog but worth counting: a typo'd net name
     silently splits a connection, so under Strict it is an error. *)
  let note_implicit net pos =
    if not (Hashtbl.mem declared net) then begin
      Robust.repair repairs
        (Robust.context ~subsystem ~operation:"lower"
           ~indices:[ pos.Robust.line ] ~pos
           (Printf.sprintf "implicit net '%s' (no declaration)" net));
      Hashtbl.add declared net Dwire
    end
  in
  Array.iter
    (fun r ->
      note_implicit r.out_net r.rpos;
      Array.iter (fun n -> note_implicit n r.rpos) r.in_nets)
    insts;
  let driver = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      (match Hashtbl.find_opt declared r.out_net with
      | Some (Dinput _) ->
          fail ~pos:r.rpos "instance drives input port '%s'" r.out_net
      | _ -> ());
      (match Hashtbl.find_opt driver r.out_net with
      | Some j ->
          fail ~pos:r.rpos
            "net '%s' has two drivers (instances '%s' and '%s')" r.out_net
            (List.nth m.Verilog.instances j).Verilog.inst
            (List.nth m.Verilog.instances i).Verilog.inst
      | None -> ());
      Hashtbl.add driver r.out_net i)
    insts;
  (* Kahn over instance-to-instance dependencies, declaration-index heap. *)
  let indegree = Array.make (max n_inst 1) 0 in
  let consumers = Array.make (max n_inst 1) [] in
  Array.iteri
    (fun i r ->
      Array.iter
        (fun net ->
          match Hashtbl.find_opt driver net with
          | Some j ->
              indegree.(i) <- indegree.(i) + 1;
              consumers.(j) <- i :: consumers.(j)
          | None -> (
              match Hashtbl.find_opt declared net with
              | Some (Dinput _) -> ()
              | _ -> fail ~pos:r.rpos "net '%s' has no driver" net))
        r.in_nets)
    insts;
  let heap = Heap.create n_inst in
  for i = n_inst - 1 downto 0 do
    if indegree.(i) = 0 then Heap.push heap i
  done;
  let bld = N.Builder.create ~name:m.Verilog.name ~n_pi in
  let node_of_net = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.add node_of_net n i) m.Verilog.inputs;
  let names = ref (List.rev m.Verilog.inputs) in
  let emitted = ref 0 in
  while heap.Heap.size > 0 do
    let i = Heap.pop heap in
    let r = insts.(i) in
    let fanins = Array.map (Hashtbl.find node_of_net) r.in_nets in
    let id = N.Builder.add_gate bld r.lc.Liberty.cell fanins in
    Hashtbl.replace node_of_net r.out_net id;
    names := r.out_net :: !names;
    incr emitted;
    List.iter
      (fun j ->
        indegree.(j) <- indegree.(j) - 1;
        if indegree.(j) = 0 then Heap.push heap j)
      consumers.(i)
  done;
  if !emitted < n_inst then begin
    let i = ref 0 in
    while indegree.(!i) = 0 do
      incr i
    done;
    fail ~pos:insts.(!i).rpos
      "instance '%s' is part of a combinational loop"
      (List.nth m.Verilog.instances !i).Verilog.inst
  end;
  if m.Verilog.outputs = [] then fail "module '%s' has no outputs" m.Verilog.name;
  let outputs =
    Array.of_list
      (List.map
         (fun o ->
           match Hashtbl.find_opt node_of_net o with
           | Some id when id >= n_pi -> id
           | Some _ -> fail "output port '%s' is a primary input" o
           | None -> fail "output port '%s' is never driven" o)
         m.Verilog.outputs)
  in
  let netlist = N.Builder.finish bld ~outputs in
  {
    design = d;
    netlist;
    net_names = Array.of_list (List.rev !names);
  }

(* ------------------------------------------------------------------ *)
(* Netlist export                                                      *)

let of_netlist ?(sdc = Sdc.empty) ?(lib_name = "hssta90") nl =
  let seen = Hashtbl.create 16 in
  let cells = ref [] in
  Array.iter
    (fun (g : N.gate) ->
      let c = g.N.cell in
      if not (Hashtbl.mem seen c.Cell.name) then begin
        Hashtbl.add seen c.Cell.name ();
        cells := c :: !cells
      end)
    nl.N.gates;
  let params =
    Array.map
      (fun p -> p.Ssta_variation.Param.name)
      Ssta_variation.Param.defaults
  in
  {
    modul = Verilog.of_netlist nl;
    lib =
      Liberty.of_cells ~name:lib_name ~params
        (Array.of_list (List.rev !cells));
    sdc;
  }

(* ------------------------------------------------------------------ *)
(* report_checks                                                       *)

type endpoint_check = {
  port : string;
  vertex : int;
  arrival : Form.t option;
  required : float;
  slack_mean : float;
  slack_std : float;
  p_met : float;
  paths : Path_report.path list;
}

type checks = {
  clock : string;
  period : float;
  endpoints : endpoint_check list;
}

let unmatched_port op name =
  Robust.repair repairs
    (Robust.context ~subsystem ~operation:"constraints"
       (Printf.sprintf "%s names unknown port '%s' (ignored)" op name))

let report_checks ?(k = 3) ?period lowered ~build =
  let sdc = lowered.design.sdc in
  let g = build.Build.graph in
  let nl = lowered.netlist in
  let n_pi = N.n_pis nl in
  let period =
    match period with
    | Some p -> p
    | None -> (
        match Sdc.clock_period sdc with
        | Some p -> p
        | None ->
            1.25 *. Sta.design_delay g ~weights:(Build.nominal_weights build))
  in
  let clock =
    match sdc.Sdc.clocks with c :: _ -> c.Sdc.clk_name | [] -> "clk"
  in
  let pi_ix = Hashtbl.create 16 in
  for i = 0 to n_pi - 1 do
    Hashtbl.add pi_ix lowered.net_names.(i) i
  done;
  (* Input delays shift every out-edge of the port's vertex: each path
     through the port crosses exactly one of them, so this is the exact
     fold of a deterministic source offset into the canonical forms. *)
  let forms = Form_buf.copy build.Build.forms in
  List.iter
    (fun (d : Sdc.io_delay) ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt pi_ix p with
          | Some v ->
              Array.iter
                (fun e ->
                  Form_buf.set forms e
                    (Form.add_const (Form_buf.get forms e) d.Sdc.delay))
                g.Tgraph.fanout.(v)
          | None -> unmatched_port "set_input_delay" p)
        d.Sdc.ports)
    sdc.Sdc.input_delays;
  let output_delay port =
    List.fold_left
      (fun acc (d : Sdc.io_delay) ->
        if List.mem port d.Sdc.ports then acc +. d.Sdc.delay else acc)
      0.0 sdc.Sdc.output_delays
  in
  (* Unknown ports in output delays / false paths: counted once here. *)
  let known_out = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.add known_out o ()) lowered.design.modul.outputs;
  List.iter
    (fun (d : Sdc.io_delay) ->
      List.iter
        (fun p ->
          if not (Hashtbl.mem known_out p) then
            unmatched_port "set_output_delay" p)
        d.Sdc.ports)
    sdc.Sdc.output_delays;
  List.iter
    (fun (fp : Sdc.false_path) ->
      List.iter
        (fun p ->
          if not (Hashtbl.mem pi_ix p) then unmatched_port "set_false_path" p)
        fp.Sdc.from_ports;
      List.iter
        (fun p ->
          if not (Hashtbl.mem known_out p) then
            unmatched_port "set_false_path" p)
        fp.Sdc.to_ports)
    sdc.Sdc.false_paths;
  (* The inputs whose paths into [port] are false, in input order; [None]
     when every path into it is. *)
  let excluded_sources port =
    let exclude_all = ref false in
    let excluded = Array.make n_pi false in
    List.iter
      (fun (fp : Sdc.false_path) ->
        let applies =
          fp.Sdc.to_ports = [] || List.mem port fp.Sdc.to_ports
        in
        if applies then
          if fp.Sdc.from_ports = [] then exclude_all := true
          else
            List.iter
              (fun p ->
                match Hashtbl.find_opt pi_ix p with
                | Some v -> excluded.(v) <- true
                | None -> ())
              fp.Sdc.from_ports)
      sdc.Sdc.false_paths;
    if !exclude_all then None
    else
      Some (List.filter (fun v -> excluded.(v)) (Array.to_list g.Tgraph.inputs))
  in
  (* For an endpoint with false -from ports, re-propagate from the
     surviving sources: vertices fed only through excluded inputs stay
     unreached, which excludes exactly the false paths' contribution.
     Each distinct excluded set is swept once into its own workspace (from
     no sources at all when every input is excluded, which reaches
     nothing), and each arrival state gets one path index shared by all
     its endpoints. *)
  let analyses = Hashtbl.create 4 in
  let analysis_for port =
    let key = excluded_sources port in
    match Hashtbl.find_opt analyses key with
    | Some a -> a
    | None ->
        let sources =
          match key with
          | None -> [||]
          | Some excluded ->
              Array.of_list
                (List.filter
                   (fun v -> not (List.mem v excluded))
                   (Array.to_list g.Tgraph.inputs))
        in
        let ws = Propagate.create_workspace () in
        Propagate.forward_into ws g ~forms ~sources;
        let a = (ws, lazy (Path_report.index g ~forms ~arrival:ws)) in
        Hashtbl.add analyses key a;
        a
  in
  let endpoints =
    List.mapi
      (fun i port ->
        let vertex = nl.N.outputs.(i) in
        let ws, paths_index = analysis_for port in
        let required = period -. output_delay port in
        match Propagate.ws_form ws vertex with
        | None ->
            {
              port;
              vertex;
              arrival = None;
              required;
              slack_mean = infinity;
              slack_std = 0.0;
              p_met = 1.0;
              paths = [];
            }
        | Some f ->
            {
              port;
              vertex;
              arrival = Some f;
              required;
              slack_mean = required -. f.Form.mean;
              slack_std = Form.std f;
              p_met = Form.cdf f required;
              paths =
                Path_report.top_paths (Lazy.force paths_index)
                  ~endpoint:vertex ~k;
            })
      lowered.design.modul.outputs
  in
  { clock; period; endpoints }

let pp_checks lowered fmt c =
  Format.fprintf fmt "report_checks — design %s, clock %s, period %.3f ps@."
    lowered.netlist.N.name c.clock c.period;
  List.iter
    (fun e ->
      Format.fprintf fmt "@.Endpoint %s (required %.3f ps)@." e.port
        e.required;
      match e.arrival with
      | None ->
          Format.fprintf fmt "  unconstrained (all paths false or cut)@."
      | Some f ->
          Format.fprintf fmt "  arrival: mean %.3f ps, sigma %.3f ps@."
            f.Form.mean (Form.std f);
          Format.fprintf fmt
            "  slack:   mean %.3f ps, sigma %.3f ps   P(met) = %.4f@."
            e.slack_mean e.slack_std e.p_met;
          List.iteri
            (fun i (p : Path_report.path) ->
              Format.fprintf fmt "  path %d [crit %.3f]: %s@." (i + 1)
                p.Path_report.criticality
                (String.concat " -> "
                   (List.map
                      (fun v -> lowered.net_names.(v))
                      p.Path_report.vertices)))
            e.paths)
    c.endpoints
