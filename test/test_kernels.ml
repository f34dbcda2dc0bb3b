(* Property tests for the allocation-free canonical-form kernels
   (Ssta_canonical.Form_buf) and the workspace-reusing propagation engine:
   every kernel must agree with the boxed reference arithmetic of
   [Sweep_oracle] and every sweep with its per-operation boxed sweep -
   bit for bit, which is stronger than the 1e-12 the extraction accuracy
   argument needs - over randomized dimensions, including degenerate
   [n_pcs = 0] / [n_globals = 0] layouts and the tightness 0/1 branches of
   the statistical max. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Rng = Ssta_gauss.Rng
module Normal = Ssta_gauss.Normal
module Mat = Ssta_linalg.Mat

(* Dimension mix exercised by every property, covering the degenerate
   layouts the strided kernels special-case implicitly. *)
let dim_cases =
  [
    { Form.n_globals = 0; n_pcs = 0 };
    { Form.n_globals = 3; n_pcs = 0 };
    { Form.n_globals = 0; n_pcs = 5 };
    { Form.n_globals = 2; n_pcs = 4 };
    { Form.n_globals = 3; n_pcs = 37 };
  ]

let random_form rng (dims : Form.dims) =
  Form.make
    ~mean:(20.0 *. Rng.uniform rng)
    ~globals:(Array.init dims.Form.n_globals (fun _ -> Rng.gaussian rng))
    ~pcs:(Array.init dims.Form.n_pcs (fun _ -> Rng.gaussian rng))
    ~rand:(abs_float (Rng.gaussian rng))

(* A 3-slot scratch buffer per case: operands in slots 0/1, result in 2. *)
let with_pairs seed f =
  List.iter
    (fun dims ->
      let rng = Rng.create ~seed in
      for _ = 1 to 25 do
        let a = random_form rng dims and b = random_form rng dims in
        f dims a b
      done;
      (* Degenerate tightness branches: an identical zero-random pair
         (theta^2 = 0, tightness 1 via the constant-difference branch of
         Clark) and a hopelessly dominated pair (tightness exactly 0 after
         the CDF underflows). *)
      let a = { (random_form rng dims) with Form.rand = 0.0 } in
      f dims a a;
      let lo = random_form rng dims in
      f dims lo (Form.add_const lo 1000.0);
      f dims (Form.add_const lo 1000.0) lo)
    dim_cases

(* Each binary kernel over [a] in slot 0 and [b] in slot 1 of one buffer:
   into a third slot, in place over either operand, and with the operands
   in two different buffers (the input slab and a private workspace slab,
   as in [Reduce]). *)
let check_binary name kernel oracle seed =
  with_pairs seed (fun dims a b ->
      let want = oracle a b in
      let fresh () = Sweep_oracle.pack dims [| a; b; Form.zero dims |] in
      let buf = fresh () in
      kernel ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:2;
      Sweep_oracle.check_bits name want (Form_buf.get buf 2);
      let buf = fresh () in
      kernel ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:0;
      Sweep_oracle.check_bits (name ^ ", dst = a") want (Form_buf.get buf 0);
      let buf = fresh () in
      kernel ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:1;
      Sweep_oracle.check_bits (name ^ ", dst = b") want (Form_buf.get buf 1);
      let other = Sweep_oracle.pack dims [| Form.zero dims; b |] in
      let buf = fresh () in
      kernel ~a:buf ~ia:0 ~b:other ~ib:1 ~dst:buf ~idst:0;
      Sweep_oracle.check_bits (name ^ ", b in another buffer") want (Form_buf.get buf 0);
      let other = Sweep_oracle.pack dims [| a |] in
      let buf = fresh () in
      kernel ~a:other ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:1;
      Sweep_oracle.check_bits (name ^ ", a in another buffer") want (Form_buf.get buf 1));
  true

let prop_add_into =
  check_binary "add_into" Form_buf.add_into Sweep_oracle.add

let prop_max2_into =
  check_binary "max2_into" Form_buf.max2_into Sweep_oracle.max2

(* The slot-level tightness probe, bit for bit, including the tp = 1 tie
   and the tp = 0 / tp = 1 constant-offset pairs of [with_pairs]. *)
let prop_tightness seed =
  with_pairs seed (fun dims a b ->
      let buf = Sweep_oracle.pack dims [| a; b |] in
      let got = Form_buf.tightness buf 0 buf 1
      and want = Sweep_oracle.tightness a b in
      if Int64.bits_of_float got <> Int64.bits_of_float want then
        Alcotest.failf "tightness: kernel %h, oracle %h" got want);
  true

let prop_add_then_max_into seed =
  with_pairs seed (fun dims a b ->
      let rng = Rng.create ~seed:(seed + 1) in
      let prev = random_form rng dims in
      let buf = Sweep_oracle.pack dims [| a; b; prev |] in
      Form_buf.add_then_max_into ~acc:buf ~iacc:2 ~a:buf ~ia:0 ~b:buf ~ib:1;
      Sweep_oracle.check_bits "add_then_max_into = max2 prev (add a b)"
        (Sweep_oracle.max2 prev (Sweep_oracle.add a b))
        (Form_buf.get buf 2));
  true

(* The per-visit covariance gather of the blocked screen: every lane of
   the four-lane C kernel must agree with the Form.covariance probes bit
   for bit - vectorising across lanes is pure instruction scheduling,
   never a different accumulation.  [lanes] lists (ia, ie, ir) per lane;
   the m slot is shared. *)
let check_cov4 ~name forms buf ~im lanes =
  let n = Form_buf.cov4_lanes in
  (* Spare lanes copy lane 0, as in the screen's short tail batches. *)
  let lane j = List.nth lanes (if j < List.length lanes then j else 0) in
  let pick f = Array.init n (fun j -> f (lane j)) in
  let into =
    Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout
      (n * Form_buf.cov4_size) (fun _ -> nan)
  in
  Form_buf.cov4_batch_into ~a:buf ~e:buf ~r:buf ~m:buf ~im
    ~srcs:(pick (fun (ia, _, _) -> ia))
    ~edges:(pick (fun (_, ie, _) -> ie))
    ~dsts:(pick (fun (_, _, ir) -> ir))
    ~into;
  List.iteri
    (fun j (ia, ie, ir) ->
      let c what k x y =
        let got = into.{(j * Form_buf.cov4_size) + k} in
        let want = Form.covariance forms.(x) forms.(y) in
        if Int64.bits_of_float got <> Int64.bits_of_float want then
          Alcotest.failf "cov4 %s lane %d %s: %h <> %h (probe)" name j what
            got want
      in
      c "ar" Form_buf.cov4_ar ia ir;
      c "em" Form_buf.cov4_em ie im;
      c "am" Form_buf.cov4_am ia im;
      c "rm" Form_buf.cov4_rm ir im)
    lanes

(* Four distinct lanes, then the screen's short tail batches: one to
   three pending evaluations with the spare lanes copying lane 0. *)
let cov4_lane_cases forms buf ~name =
  let im = 12 in
  let lane j = (3 * j, (3 * j) + 1, (3 * j) + 2) in
  check_cov4 ~name:(name ^ ", four lanes") forms buf ~im
    (List.init 4 lane);
  for n = 1 to 3 do
    check_cov4
      ~name:(Printf.sprintf "%s, tail of %d" name n)
      forms buf ~im
      (List.init n (fun j -> lane (3 - j)))
  done

let prop_cov4 seed =
  List.iter
    (fun dims ->
      let rng = Rng.create ~seed in
      for _ = 1 to 25 do
        let forms = Array.init 13 (fun _ -> random_form rng dims) in
        cov4_lane_cases forms (Sweep_oracle.pack dims forms) ~name:"random"
      done)
    dim_cases;
  true

(* The same with the operands that catch a kernel rounding differently
   from the OCaml dot: signed zeros, subnormals (flush-to-zero would
   change them), magnitudes whose products overflow or underflow, and
   values whose products a fused multiply-add would keep more bits of. *)
let extreme_coeff rng =
  match Rng.int rng 9 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> 4.9e-324 *. float_of_int (1 + Rng.int rng 1000)
  | 3 -> -2.2250738585072014e-308 *. Rng.uniform rng
  | 4 -> 1e300 *. Rng.gaussian rng
  | 5 -> 1e-160 *. Rng.gaussian rng
  | 6 -> 1.0 +. (Rng.uniform rng *. epsilon_float)
  | _ -> Rng.gaussian rng

let prop_cov4_extreme seed =
  List.iter
    (fun dims ->
      let rng = Rng.create ~seed in
      for _ = 1 to 25 do
        let forms =
          Array.init 13 (fun _ ->
              Form.make ~mean:(extreme_coeff rng)
                ~globals:
                  (Array.init dims.Form.n_globals (fun _ -> extreme_coeff rng))
                ~pcs:(Array.init dims.Form.n_pcs (fun _ -> extreme_coeff rng))
                ~rand:(abs_float (extreme_coeff rng)))
        in
        cov4_lane_cases forms (Sweep_oracle.pack dims forms) ~name:"extreme"
      done)
    dim_cases;
  true

(* The lane arrays are checked, not trusted: the kernel reads four lanes
   and the slots they name. *)
let test_cov4_contract () =
  let dims = { Form.n_globals = 2; n_pcs = 3 } in
  let buf = Form_buf.create dims 4 in
  let into n =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
  in
  let call ?(srcs = [| 0; 1; 2; 3 |]) ?(im = 0) ?(n = 16) () =
    Form_buf.cov4_batch_into ~a:buf ~e:buf ~r:buf ~m:buf ~im ~srcs
      ~dsts:[| 0; 1; 2; 3 |] ~edges:[| 3; 2; 1; 0 |] ~into:(into n)
  in
  call ();
  let raises what f =
    match f () with
    | () -> Alcotest.failf "cov4 contract: %s accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "two-lane arrays" (fun () -> call ~srcs:[| 0; 1 |] ());
  raises "short scratch" (fun () -> call ~n:8 ());
  raises "slot out of range" (fun () -> call ~srcs:[| 0; 1; 2; 4 |] ());
  raises "negative slot" (fun () -> call ~srcs:[| -1; 1; 2; 3 |] ());
  raises "m slot out of range" (fun () -> call ~im:4 ());
  raises "dims mismatch" (fun () ->
      Form_buf.cov4_batch_into ~a:buf
        ~e:(Form_buf.create { dims with Form.n_pcs = 4 } 4)
        ~r:buf ~m:buf ~im:0 ~srcs:[| 0; 1; 2; 3 |] ~dsts:[| 0; 1; 2; 3 |]
        ~edges:[| 0; 1; 2; 3 |] ~into:(into 16))

(* The scratch-array Clark must be bit-identical to the record-returning
   original, including the constant-difference degenerate branch. *)
let prop_clark_into seed =
  let rng = Rng.create ~seed in
  let check ~mean_a ~var_a ~mean_b ~var_b ~cov =
    let want = Normal.clark_max ~mean_a ~var_a ~mean_b ~var_b ~cov in
    let s = [| mean_a; var_a; mean_b; var_b; cov |] in
    Normal.clark_max_into s;
    if
      not
        (s.(0) = want.Normal.tightness
        && s.(1) = want.Normal.mean
        && s.(2) = want.Normal.variance)
    then
      Alcotest.failf
        "clark_max_into (%g,%g,%g,%g,%g): got (%g,%g,%g) want (%g,%g,%g)"
        mean_a var_a mean_b var_b cov s.(0) s.(1) s.(2)
        want.Normal.tightness want.Normal.mean want.Normal.variance
  in
  for _ = 1 to 200 do
    let mean_a = 20.0 *. Rng.gaussian rng
    and mean_b = 20.0 *. Rng.gaussian rng
    and sa = abs_float (Rng.gaussian rng)
    and sb = abs_float (Rng.gaussian rng)
    and rho = 2.0 *. (Rng.uniform rng -. 0.5) in
    check ~mean_a ~var_a:(sa *. sa) ~mean_b ~var_b:(sb *. sb)
      ~cov:(rho *. sa *. sb)
  done;
  (* Degenerate: theta^2 = 0 exactly, both mean orderings, and the
     tightness-0/1 saturation of far-apart operands. *)
  check ~mean_a:3.0 ~var_a:4.0 ~mean_b:1.0 ~var_b:4.0 ~cov:4.0;
  check ~mean_a:1.0 ~var_a:4.0 ~mean_b:3.0 ~var_b:4.0 ~cov:4.0;
  check ~mean_a:1000.0 ~var_a:1.0 ~mean_b:0.0 ~var_b:1.0 ~cov:0.0;
  check ~mean_a:0.0 ~var_a:1.0 ~mean_b:1000.0 ~var_b:1.0 ~cov:0.0;
  true

let prop_scalar_probes seed =
  with_pairs seed (fun dims a b ->
      let buf = Sweep_oracle.pack dims [| a; b |] in
      if
        not
          (Form_buf.mean buf 0 = a.Form.mean
          && Form_buf.rand_coeff buf 1 = b.Form.rand
          && Form_buf.variance buf 0 = Form.variance a
          && Form_buf.std buf 1 = Form.std b
          && Form_buf.covariance buf 0 buf 1 = Form.covariance a b)
      then Alcotest.fail "scalar probe mismatch");
  true

(* Random DAG in the shape of test_property's, parameterized by dims. *)
let random_dag seed dims =
  let rng = Rng.create ~seed in
  let n = 4 + Rng.int rng 24 in
  let n_roots = 1 + Rng.int rng (max 1 (n / 4)) in
  let edges = ref [] in
  for v = n_roots to n - 1 do
    let fanins = 1 + Rng.int rng 3 in
    let seen = Hashtbl.create 4 in
    for _ = 1 to fanins do
      let s = Rng.int rng v in
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.replace seen s ();
        edges := (s, v) :: !edges
      end
    done
  done;
  let edges = Array.of_list (List.rev !edges) in
  let has_fanout = Array.make n false and has_fanin = Array.make n false in
  Array.iter
    (fun (s, d) ->
      has_fanout.(s) <- true;
      has_fanin.(d) <- true)
    edges;
  let inputs = ref [] and outputs = ref [] in
  for v = 0 to n - 1 do
    if not has_fanin.(v) then inputs := v :: !inputs;
    if not has_fanout.(v) then outputs := v :: !outputs
  done;
  let g =
    Tgraph.make ~n_vertices:n ~edges
      ~inputs:(Array.of_list (List.rev !inputs))
      ~outputs:(Array.of_list (List.rev !outputs))
  in
  let forms =
    Array.init (Tgraph.n_edges g) (fun _ -> random_form rng dims)
  in
  (g, forms)

let sweep_equal n ws reference =
  Array.for_all2
    (fun got want ->
      match (got, want) with
      | None, None -> true
      | Some a, Some b -> Sweep_oracle.same_bits a b
      | _ -> false)
    (Array.init n (fun v -> H.Propagate.ws_form ws v))
    reference

(* One workspace reused across many graphs, dims, directions and repeated
   calls: every sweep must match the pure implementation bit for bit, i.e.
   no state leaks from any previous sweep. *)
let prop_workspace_reuse seed =
  let ws = H.Propagate.create_workspace () in
  let ok = ref true in
  List.iteri
    (fun k dims ->
      let g, forms = random_dag (seed + (1000 * k)) dims in
      let fbuf = Sweep_oracle.pack dims forms in
      let n = Tgraph.n_vertices g in
      Array.iter
        (fun i ->
          let reference = Sweep_oracle.forward g ~forms ~sources:[| i |] in
          (* Twice through the same (dirty) workspace: both calls must
             reproduce the pure pass exactly. *)
          H.Propagate.forward_into ws g ~forms:fbuf ~sources:[| i |];
          if not (sweep_equal n ws reference) then ok := false;
          H.Propagate.forward_into ws g ~forms:fbuf ~sources:[| i |];
          if not (sweep_equal n ws reference) then ok := false)
        g.Tgraph.inputs;
      Array.iter
        (fun o ->
          let reference = Sweep_oracle.backward_to g ~forms o in
          H.Propagate.backward_block_into [| ws |] g ~forms:fbuf
            ~outs:[| o |] ~lo:0 ~hi:1;
          if not (sweep_equal n ws reference) then ok := false)
        g.Tgraph.outputs)
    dim_cases;
  !ok

(* Blocked multi-output backward propagation: every workspace of a block
   must be bit-identical to the boxed oracle's sweep from its output,
   whatever the block size and wherever the block boundaries fall - the
   guarantee the tiled criticality screen's backward phase rests on. *)
let prop_backward_block seed =
  let ok = ref true in
  List.iteri
    (fun k dims ->
      let g, forms = random_dag (seed + (1000 * k)) dims in
      let fbuf = Sweep_oracle.pack dims forms in
      let n = Tgraph.n_vertices g in
      let outs = g.Tgraph.outputs in
      let no = Array.length outs in
      let reference = Array.map (Sweep_oracle.backward_to g ~forms) outs in
      List.iter
        (fun block ->
          let wss =
            Array.init no (fun _ -> H.Propagate.create_workspace ())
          in
          let lo = ref 0 in
          while !lo < no do
            let hi = min no (!lo + block) in
            H.Propagate.backward_block_into wss g ~forms:fbuf ~outs ~lo:!lo
              ~hi;
            lo := hi
          done;
          for j = 0 to no - 1 do
            if not (sweep_equal n wss.(j) reference.(j)) then ok := false
          done)
        [ 1; 3; max no 1 ])
    dim_cases;
  !ok

let prop_forward_all_matches seed =
  let dims = { Form.n_globals = 2; n_pcs = 4 } in
  let g, forms = random_dag seed dims in
  let ws = H.Propagate.create_workspace () in
  H.Propagate.forward_into ws g
    ~forms:(Sweep_oracle.pack dims forms)
    ~sources:g.Tgraph.inputs;
  sweep_equal (Tgraph.n_vertices g) ws (Sweep_oracle.forward_all g ~forms)

(* The one circuit-delay fold: pack, sweep from every input, max over the
   reached outputs - the oracle's boxed sweep and fold, bit for bit, over
   every dimension layout. *)
let prop_circuit_delay seed =
  List.for_all
    (fun dims ->
      let g, forms = random_dag seed dims in
      match
        ( H.Propagate.circuit_delay g ~forms:(Sweep_oracle.pack dims forms),
          Sweep_oracle.circuit_delay g ~forms )
      with
      | None, None -> true
      | Some a, Some b -> Sweep_oracle.same_bits a b
      | _ -> false)
    dim_cases

(* Slab-carved buffers must be indistinguishable from freshly allocated
   ones: same kernel results bit for bit, at arbitrary carve offsets -
   the storage guarantee the batch engine's per-worker slabs rely on. *)
let prop_slab_carving seed =
  with_pairs seed (fun dims a b ->
      (* Capacity-planned: a junk buffer first so the operands land at a
         nonzero slab offset, then two 3-slot working buffers. *)
      let junk = 2 + (seed mod 5) in
      let planned =
        Form_buf.floats_needed dims junk + (2 * Form_buf.floats_needed dims 3)
      in
      let slab = Form_buf.slab_create planned in
      let run pad =
        if pad > 0 then ignore (Form_buf.create ~slab dims pad);
        let buf = Form_buf.create ~slab dims 3 in
        Form_buf.set buf 0 a;
        Form_buf.set buf 1 b;
        Form_buf.add_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:2;
        Sweep_oracle.check_bits "slab add_into" (Sweep_oracle.add a b) (Form_buf.get buf 2);
        Form_buf.max2_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:2;
        Sweep_oracle.check_bits "slab max2_into" (Sweep_oracle.max2 a b)
          (Form_buf.get buf 2)
      in
      run junk;
      run 0;
      (* Both carves fit the plan, so the slab never grew. *)
      if Form_buf.slab_peak_bytes slab <> 8 * planned then
        Alcotest.fail "capacity-planned slab grew";
      (* An undersized slab grows (its peak rises) but stays correct: old
         views keep their backing alive. *)
      let tiny = Form_buf.slab_create 1 in
      let keep = Form_buf.create ~slab:tiny dims 1 in
      Form_buf.set keep 0 a;
      let more = Form_buf.create ~slab:tiny dims 3 in
      Form_buf.set more 0 b;
      if Form_buf.slab_peak_bytes tiny <= 8 then
        Alcotest.fail "undersized slab did not grow";
      Sweep_oracle.check_bits "view survives slab growth" a (Form_buf.get keep 0);
      Sweep_oracle.check_bits "post-growth carve works" b (Form_buf.get more 0));
  true

(* recompose_into is the batch engine's scenario transform: mean replaced,
   every coefficient scaled by beta, the independent term by |beta|. *)
let prop_recompose seed =
  with_pairs seed (fun dims a b ->
      let buf = Sweep_oracle.pack dims [| a; b |] in
      let mean = b.Form.mean and beta = b.Form.rand -. 0.5 in
      Form_buf.recompose_into ~mean ~beta ~a:buf ~ia:0 ~dst:buf ~idst:1;
      let want =
        Form.make ~mean
          ~globals:(Array.map (fun c -> beta *. c) a.Form.globals)
          ~pcs:(Array.map (fun c -> beta *. c) a.Form.pcs)
          ~rand:(abs_float beta *. a.Form.rand)
      in
      Sweep_oracle.check_bits "recompose_into" want (Form_buf.get buf 1);
      (* Aliased: recomposing a slot onto itself. *)
      Form_buf.recompose_into ~mean ~beta ~a:buf ~ia:0 ~dst:buf ~idst:0;
      Sweep_oracle.check_bits "recompose_into aliased" want (Form_buf.get buf 0));
  true

(* Minor words per call of [f] with observability disabled, after one
   warm-up call. *)
let minor_words_per f =
  let module Obs = Ssta_obs.Obs in
  let saved = Obs.enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) @@ fun () ->
  Obs.disable ();
  let calls = 100 in
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* The kernels' allocation-free claim on a real characterized circuit:
   with the workspaces warmed up by one sweep, repeated forward and
   blocked backward sweeps on c432 allocate (almost) nothing on the minor
   heap - at most one word per sweep, which leaves room for the boxed
   float the measurement itself may cost. *)
let test_sweeps_allocation_free () =
  let b =
    Ssta_timing.Build.characterize (Ssta_circuit.Iscas.build "c432")
  in
  let g = b.Ssta_timing.Build.graph and fbuf = b.Ssta_timing.Build.forms in
  let inputs = g.Tgraph.inputs and outs = g.Tgraph.outputs in
  let no = Array.length outs in
  let ws = H.Propagate.create_workspace () in
  let wss = Array.init no (fun _ -> H.Propagate.create_workspace ()) in
  let fw =
    minor_words_per (fun () ->
        H.Propagate.forward_into ws g ~forms:fbuf ~sources:inputs)
  in
  let bw =
    minor_words_per (fun () ->
        H.Propagate.backward_block_into wss g ~forms:fbuf ~outs ~lo:0 ~hi:no)
  in
  Alcotest.(check bool)
    (Printf.sprintf "forward_into: %.2f minor words/sweep <= 1" fw)
    true (fw <= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "backward_block_into: %.2f minor words/sweep <= 1" bw)
    true (bw <= 1.0)

(* The worst-output fold every delay answer goes through (serve's
   [quantile] on each request): after warm-up, [ws_max_over] over c7552's
   outputs allocates no more minor words than boxing one output form, i.e.
   only its result. *)
let test_max_over_allocation () =
  let b =
    Ssta_timing.Build.characterize (Ssta_circuit.Iscas.build "c7552")
  in
  let g = b.Ssta_timing.Build.graph in
  let outs = g.Tgraph.outputs in
  let ws = H.Propagate.create_workspace () in
  H.Propagate.forward_into ws g ~forms:b.Ssta_timing.Build.forms
    ~sources:g.Tgraph.inputs;
  let fold = minor_words_per (fun () -> H.Propagate.ws_max_over ws outs) in
  let boxed = minor_words_per (fun () -> H.Propagate.ws_form ws outs.(0)) in
  Alcotest.(check bool)
    (Printf.sprintf "ws_max_over: %.1f minor words <= one boxed form's %.1f"
       fold boxed)
    true (fold <= boxed)

(* Operands of the replacement kernel: mostly Gaussian, with exact zeros
   of both signs and subnormals injected, so the kernel's zero-row skip
   and the sign of every zero sum are exercised. *)
let replace_operand rng =
  match Rng.int rng 8 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> ldexp (Rng.gaussian rng) (-1040)
  | 3 -> if Rng.uniform rng < 0.5 then 4.9e-324 else -4.9e-324
  | _ -> Rng.gaussian rng

(* [replace_into] against the boxed per-block product it replaced: each
   parameter block through [Mat.tmul_vec] (Substitute) or copied into its
   private slots (Place), bit for bit, overwriting a dirty slot and
   leaving its neighbours alone. *)
let prop_replace_into seed =
  let rng = Rng.create ~seed in
  for _ = 1 to 20 do
    let ng = Rng.int rng 4 and rows = Rng.int rng 11 in
    let src =
      {
        Form.mean = replace_operand rng;
        globals = Array.init ng (fun _ -> replace_operand rng);
        pcs = Array.init (ng * rows) (fun _ -> replace_operand rng);
        rand = abs_float (Rng.gaussian rng);
      }
    in
    let block k = Array.sub src.Form.pcs (k * rows) rows in
    let run map cols expected_pcs =
      let dims = { Form.n_globals = ng; n_pcs = ng * cols } in
      let buf = Form_buf.create dims 3 in
      Form_buf.set buf 1 (random_form rng dims);
      let sbuf =
        Sweep_oracle.pack { Form.n_globals = ng; n_pcs = ng * rows } [| src |]
      in
      Form_buf.replace_into ~map ~src:sbuf ~isrc:0 ~dst:buf ~idst:1;
      Sweep_oracle.check_bits "replaced slot" { src with Form.pcs = expected_pcs }
        (Form_buf.get buf 1);
      Sweep_oracle.check_bits "slot before" (Form.zero dims) (Form_buf.get buf 0);
      Sweep_oracle.check_bits "slot after" (Form.zero dims) (Form_buf.get buf 2)
    in
    let cols = Rng.int rng 14 in
    let m = Mat.init rows cols (fun _ _ -> replace_operand rng) in
    run (Form_buf.Substitute m) cols
      (Array.concat (List.init ng (fun k -> Mat.tmul_vec m (block k))));
    let offset = Rng.int rng 5 in
    let cols = offset + rows + Rng.int rng 4 in
    run
      (Form_buf.Place { offset; tiles = rows })
      cols
      (Array.concat
         (List.init ng (fun k ->
              Array.init cols (fun j ->
                  if j >= offset && j < offset + rows then
                    src.Form.pcs.((k * rows) + j - offset)
                  else 0.0))))
  done;
  true

let test prop name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name QCheck.(int_range 0 100_000) prop)

let suites =
  [
    ( "kernels.form_buf",
      [
        test prop_add_into "add_into agrees with Form.add (bit-exact)";
        test prop_max2_into "max2_into agrees with Form.max2 (bit-exact)";
        test prop_tightness "tightness agrees with the oracle (bit-exact)";
        test prop_add_then_max_into
          "fused add_then_max agrees with max2 o add (bit-exact)";
        test prop_scalar_probes "scalar probes agree with Form";
        test prop_cov4
          "cov4 gather: four lanes and tails agree with probes (bit-exact)";
        test prop_cov4_extreme
          "cov4 gather: zeros, subnormals, extremes agree (bit-exact)";
        Alcotest.test_case "cov4 gather checks its lanes" `Quick
          test_cov4_contract;
        test prop_clark_into "clark_max_into agrees with clark_max";
        test prop_slab_carving
          "slab-carved buffers match fresh buffers (bit-exact)";
        test prop_recompose "recompose_into scales coefficients exactly";
        test prop_replace_into
          "replace_into agrees with Mat.tmul_vec per block (bit-exact)";
      ] );
    ( "kernels.workspace",
      [
        test prop_workspace_reuse
          "reused workspace reproduces pure forward/backward exactly";
        test prop_forward_all_matches "forward_into from all inputs";
        test prop_circuit_delay "circuit_delay = oracle sweep and fold";
        test prop_backward_block
          "blocked backward = per-output sweeps at every block size";
        Alcotest.test_case "c432 sweeps allocation-free after warm-up" `Quick
          test_sweeps_allocation_free;
        Alcotest.test_case "c7552 output fold boxes only its result" `Quick
          test_max_over_allocation;
      ] );
  ]
