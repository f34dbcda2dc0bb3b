(* Property tests for the allocation-free canonical-form kernels
   (Ssta_canonical.Form_buf) and the workspace-reusing propagation tier:
   every kernel must agree with the pure Form/Propagate implementation -
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

let exactly_equal a b =
  a.Form.mean = b.Form.mean
  && a.Form.rand = b.Form.rand
  && a.Form.globals = b.Form.globals
  && a.Form.pcs = b.Form.pcs

let check_exact msg expected actual =
  if not (exactly_equal expected actual) then
    Alcotest.failf "%s:@.expected %a@.actual   %a" msg Form.pp expected
      Form.pp actual

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

let prop_add_into seed =
  with_pairs seed (fun dims a b ->
      let buf = Form_buf.of_forms dims [| a; b; Form.zero dims |] in
      Form_buf.add_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:2;
      check_exact "add_into = Form.add" (Form.add a b) (Form_buf.get buf 2);
      (* Aliasing: accumulate in place over slot 0. *)
      Form_buf.add_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:0;
      check_exact "add_into aliased dst" (Form.add a b) (Form_buf.get buf 0));
  true

let prop_max2_into seed =
  with_pairs seed (fun dims a b ->
      let buf = Form_buf.of_forms dims [| a; b; Form.zero dims |] in
      Form_buf.max2_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:2;
      check_exact "max2_into = Form.max2" (Form.max2 a b) (Form_buf.get buf 2);
      Form_buf.max2_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:1;
      check_exact "max2_into aliased dst" (Form.max2 a b) (Form_buf.get buf 1));
  true

let prop_add_then_max_into seed =
  with_pairs seed (fun dims a b ->
      let rng = Rng.create ~seed:(seed + 1) in
      let prev = random_form rng dims in
      let buf = Form_buf.of_forms dims [| a; b; prev |] in
      Form_buf.add_then_max_into ~acc:buf ~iacc:2 ~a:buf ~ia:0 ~b:buf ~ib:1;
      check_exact "add_then_max_into = max2 prev (add a b)"
        (Form.max2 prev (Form.add a b))
        (Form_buf.get buf 2));
  true

(* The fused moment gather must agree with the twelve scalar probes it
   replaces in the criticality exact-evaluation loop. *)
let prop_quad_stats seed =
  List.iter
    (fun dims ->
      let rng = Rng.create ~seed in
      for _ = 1 to 25 do
        let a = random_form rng dims
        and e = random_form rng dims
        and r = random_form rng dims
        and m = random_form rng dims in
        let buf = Form_buf.of_forms dims [| a; e; r; m |] in
        let q = Array.make Form_buf.quad_size nan in
        Form_buf.quad_stats_into ~a:buf ~ia:0 ~e:buf ~ie:1 ~r:buf ~ir:2
          ~m:buf ~im:3 ~into:q;
        if
          not
            (q.(Form_buf.quad_var_a) = Form.variance a
            && q.(Form_buf.quad_var_r) = Form.variance r
            && q.(Form_buf.quad_cov_ae) = Form.covariance a e
            && q.(Form_buf.quad_cov_ar) = Form.covariance a r
            && q.(Form_buf.quad_cov_er) = Form.covariance e r
            && q.(Form_buf.quad_cov_am) = Form.covariance a m
            && q.(Form_buf.quad_cov_em) = Form.covariance e m
            && q.(Form_buf.quad_cov_rm) = Form.covariance r m
            && q.(Form_buf.quad_rand_a) = a.Form.rand
            && q.(Form_buf.quad_rand_e) = e.Form.rand
            && q.(Form_buf.quad_rand_r) = r.Form.rand
            && q.(Form_buf.quad_rand_m) = m.Form.rand)
        then Alcotest.fail "quad_stats_into disagrees with scalar probes"
      done)
    dim_cases;
  true

(* The per-visit covariance gather of the blocked screen: both the lone
   kernel and the two-lane batch must agree with the Form.covariance
   probes bit for bit — the batch is pure instruction scheduling, never a
   different accumulation. *)
let prop_cov4 seed =
  List.iter
    (fun dims ->
      let rng = Rng.create ~seed in
      for _ = 1 to 25 do
        let forms = Array.init 7 (fun _ -> random_form rng dims) in
        let buf = Form_buf.of_forms dims forms in
        let check ~ia ~ie ~ir ~im (got : float array) base =
          let c name x y =
            if x <> y then
              Alcotest.failf "cov4 %s: %h <> %h (probe)" name x y
          in
          c "ar" got.(base + Form_buf.cov4_ar)
            (Form.covariance forms.(ia) forms.(ir));
          c "em" got.(base + Form_buf.cov4_em)
            (Form.covariance forms.(ie) forms.(im));
          c "am" got.(base + Form_buf.cov4_am)
            (Form.covariance forms.(ia) forms.(im));
          c "rm" got.(base + Form_buf.cov4_rm)
            (Form.covariance forms.(ir) forms.(im))
        in
        let lone = Array.make Form_buf.cov4_size nan in
        Form_buf.cov4_into ~a:buf ~ia:0 ~e:buf ~ie:1 ~r:buf ~ir:2 ~m:buf
          ~im:6 ~into:lone;
        check ~ia:0 ~ie:1 ~ir:2 ~im:6 lone 0;
        (* Two independent lanes sharing the m slot, exactly as the screen
           batches survivors of one walk. *)
        let batched =
          Array.make (Form_buf.cov4_lanes * Form_buf.cov4_size) nan
        in
        Form_buf.cov4_batch2_into ~a:buf ~e:buf ~r:buf ~m:buf ~im:6
          ~srcs:[| 0; 3 |] ~dsts:[| 2; 5 |] ~edges:[| 1; 4 |] ~into:batched;
        check ~ia:0 ~ie:1 ~ir:2 ~im:6 batched 0;
        check ~ia:3 ~ie:4 ~ir:5 ~im:6 batched Form_buf.cov4_size
      done)
    dim_cases;
  true

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
      let buf = Form_buf.of_forms dims [| a; b |] in
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
      | Some a, Some b -> exactly_equal a b
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
      let fbuf = Form_buf.of_forms dims forms in
      let n = Tgraph.n_vertices g in
      Array.iter
        (fun i ->
          let reference = H.Propagate.forward g ~forms ~sources:[| i |] in
          (* Twice through the same (dirty) workspace: both calls must
             reproduce the pure pass exactly. *)
          H.Propagate.forward_into ws g ~forms:fbuf ~sources:[| i |];
          if not (sweep_equal n ws reference) then ok := false;
          H.Propagate.forward_into ws g ~forms:fbuf ~sources:[| i |];
          if not (sweep_equal n ws reference) then ok := false)
        g.Tgraph.inputs;
      Array.iter
        (fun o ->
          let reference = H.Propagate.backward_to g ~forms o in
          H.Propagate.backward_to_into ws g ~forms:fbuf o;
          if not (sweep_equal n ws reference) then ok := false)
        g.Tgraph.outputs)
    dim_cases;
  !ok

(* Blocked multi-output backward propagation: every workspace of a block
   must be bit-identical to its own backward_to_into sweep, whatever the
   block size and wherever the block boundaries fall - the tentpole
   guarantee the tiled criticality screen's backward phase rests on. *)
let prop_backward_block seed =
  let ok = ref true in
  List.iteri
    (fun k dims ->
      let g, forms = random_dag (seed + (1000 * k)) dims in
      let fbuf = Form_buf.of_forms dims forms in
      let n = Tgraph.n_vertices g in
      let outs = g.Tgraph.outputs in
      let no = Array.length outs in
      let reference =
        Array.map
          (fun o ->
            let ws = H.Propagate.create_workspace () in
            H.Propagate.backward_to_into ws g ~forms:fbuf o;
            Array.init n (fun v -> H.Propagate.ws_form ws v))
          outs
      in
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
    ~forms:(Form_buf.of_forms dims forms)
    ~sources:g.Tgraph.inputs;
  sweep_equal (Tgraph.n_vertices g) ws (H.Propagate.forward_all g ~forms)

(* Slab-carved buffers must be indistinguishable from freshly allocated
   ones: same kernel results bit for bit, at arbitrary carve offsets,
   across a reset/reuse cycle - the storage guarantee the batch engine's
   per-worker slabs rely on. *)
let prop_slab_carving seed =
  with_pairs seed (fun dims a b ->
      (* Capacity-planned: a junk buffer first so the operands land at a
         nonzero slab offset, then the 3-slot working buffer. *)
      let junk = 2 + (seed mod 5) in
      let slab =
        Form_buf.slab_create
          (Form_buf.floats_needed dims junk
          + (2 * Form_buf.floats_needed dims 3))
      in
      let run () =
        let _pad = Form_buf.create ~slab dims junk in
        let buf = Form_buf.create ~slab dims 3 in
        Form_buf.set buf 0 a;
        Form_buf.set buf 1 b;
        Form_buf.add_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:2;
        check_exact "slab add_into" (Form.add a b) (Form_buf.get buf 2);
        Form_buf.max2_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:2;
        check_exact "slab max2_into" (Form.max2 a b) (Form_buf.get buf 2)
      in
      run ();
      (* A second carve fits the remaining capacity (2x the 3-slot need
         was planned), so the slab must not have grown... *)
      if Form_buf.slab_grows slab <> 0 then
        Alcotest.fail "capacity-planned slab grew";
      (* ...and a reset rewinds the cursor: the same carves replay on the
         same storage with the same results. *)
      Form_buf.slab_reset slab;
      let used0 = Form_buf.slab_used_floats slab in
      if used0 <> 0 then Alcotest.fail "slab_reset left a nonzero cursor";
      run ();
      if Form_buf.slab_grows slab <> 0 then
        Alcotest.fail "slab grew after reset";
      (* An undersized slab grows (counted) but stays correct: old views
         keep their backing alive. *)
      let tiny = Form_buf.slab_create 1 in
      let keep = Form_buf.create ~slab:tiny dims 1 in
      Form_buf.set keep 0 a;
      let more = Form_buf.create ~slab:tiny dims 3 in
      Form_buf.set more 0 b;
      if Form_buf.slab_grows tiny = 0 then
        Alcotest.fail "undersized slab did not count its growth";
      check_exact "view survives slab growth" a (Form_buf.get keep 0);
      check_exact "post-growth carve works" b (Form_buf.get more 0));
  true

(* recompose_into is the batch engine's scenario transform: mean replaced,
   every coefficient scaled by beta, the independent term by |beta|. *)
let prop_recompose seed =
  with_pairs seed (fun dims a b ->
      let buf = Form_buf.of_forms dims [| a; b |] in
      let mean = b.Form.mean and beta = b.Form.rand -. 0.5 in
      Form_buf.recompose_into ~mean ~beta ~a:buf ~ia:0 ~dst:buf ~idst:1;
      let want =
        Form.make ~mean
          ~globals:(Array.map (fun c -> beta *. c) a.Form.globals)
          ~pcs:(Array.map (fun c -> beta *. c) a.Form.pcs)
          ~rand:(abs_float beta *. a.Form.rand)
      in
      check_exact "recompose_into" want (Form_buf.get buf 1);
      (* Aliased: recomposing a slot onto itself. *)
      Form_buf.recompose_into ~mean ~beta ~a:buf ~ia:0 ~dst:buf ~idst:0;
      check_exact "recompose_into aliased" want (Form_buf.get buf 0));
  true

(* The kernels' allocation-free claim on a real characterized circuit:
   with observability disabled and the workspaces warmed up by one sweep,
   repeated forward and blocked backward sweeps on c432 allocate (almost)
   nothing on the minor heap - at most one word per sweep, which leaves
   room for the boxed float the measurement itself may cost. *)
let test_sweeps_allocation_free () =
  let module Obs = Ssta_obs.Obs in
  let b =
    Ssta_timing.Build.characterize (Ssta_circuit.Iscas.build "c432")
  in
  let g = b.Ssta_timing.Build.graph and forms = b.Ssta_timing.Build.forms in
  let fbuf = Form_buf.of_forms (Form.dims forms.(0)) forms in
  let inputs = g.Tgraph.inputs and outs = g.Tgraph.outputs in
  let no = Array.length outs in
  let ws = H.Propagate.create_workspace () in
  let wss = Array.init no (fun _ -> H.Propagate.create_workspace ()) in
  let forward () = H.Propagate.forward_into ws g ~forms:fbuf ~sources:inputs in
  let backward () =
    H.Propagate.backward_block_into wss g ~forms:fbuf ~outs ~lo:0 ~hi:no
  in
  let saved = Obs.enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) @@ fun () ->
  Obs.disable ();
  let sweeps = 100 in
  let words_per_sweep f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to sweeps do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int sweeps
  in
  let fw = words_per_sweep forward in
  let bw = words_per_sweep backward in
  Alcotest.(check bool)
    (Printf.sprintf "forward_into: %.2f minor words/sweep <= 1" fw)
    true (fw <= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "backward_block_into: %.2f minor words/sweep <= 1" bw)
    true (bw <= 1.0)

let test prop name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name QCheck.(int_range 0 100_000) prop)

let suites =
  [
    ( "kernels.form_buf",
      [
        test prop_add_into "add_into agrees with Form.add (bit-exact)";
        test prop_max2_into "max2_into agrees with Form.max2 (bit-exact)";
        test prop_add_then_max_into
          "fused add_then_max agrees with max2 o add (bit-exact)";
        test prop_scalar_probes "scalar probes agree with Form";
        test prop_quad_stats "fused moment gather agrees with probes";
        test prop_cov4
          "cov4 gather and two-lane batch agree with probes (bit-exact)";
        test prop_clark_into "clark_max_into agrees with clark_max";
        test prop_slab_carving
          "slab-carved buffers match fresh buffers (bit-exact)";
        test prop_recompose "recompose_into scales coefficients exactly";
      ] );
    ( "kernels.workspace",
      [
        test prop_workspace_reuse
          "reused workspace reproduces pure forward/backward exactly";
        test prop_forward_all_matches "forward_into from all inputs";
        test prop_backward_block
          "blocked backward = per-output sweeps at every block size";
        Alcotest.test_case "c432 sweeps allocation-free after warm-up" `Quick
          test_sweeps_allocation_free;
      ] );
  ]
