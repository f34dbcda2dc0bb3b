module Build = Ssta_timing.Build
module Form = Ssta_canonical.Form
module Correlation = Ssta_variation.Correlation
module Basis = Ssta_variation.Basis

type corner =
  | Nominal
  | Slow of float
  | Fast of float
  | Global_slow of float

(* Allocation-free: the batch engine re-derives corner means per scenario
   into pooled worker scratch, so the per-edge evaluation writes into a
   caller-owned row. *)
let corner_weights_into (b : Build.t) corner ~into =
  let sparse = b.Build.sparse in
  if Array.length into < Array.length sparse then
    invalid_arg "Corners.corner_weights_into: row shorter than edge count";
  let corr = b.Build.basis.Basis.corr in
  let sg = sqrt corr.Correlation.var_global in
  Array.iteri
    (fun i (s : Build.sparse_edge) ->
      let full_shift k =
        (* Every variation source pushed k sigma the same way: the parameter
           itself moves k sigma in total, and the load random adds its own
           k sigma worth of delay. *)
        let param =
          Array.fold_left (fun acc sv -> acc +. (sv *. k)) 0.0 s.Build.sens
        in
        (s.Build.nominal *. (1.0 +. param)) +. (k *. s.Build.random_sigma)
      in
      into.(i) <-
        (match corner with
        | Nominal -> s.Build.nominal
        | Slow k -> full_shift k
        | Fast k -> full_shift (-.k)
        | Global_slow k ->
            let param =
              Array.fold_left
                (fun acc sv -> acc +. (sv *. sg *. k))
                0.0 s.Build.sens
            in
            s.Build.nominal *. (1.0 +. param)))
    sparse

let corner_delay b corner =
  let weights = Array.make (Array.length b.Build.sparse) 0.0 in
  corner_weights_into b corner ~into:weights;
  Ssta_timing.Sta.design_delay b.Build.graph ~weights

type pessimism = {
  nominal : float;
  slow3 : float;
  global_slow3 : float;
  ssta_q9987 : float;
  margin_ratio : float;
}

let pessimism (b : Build.t) =
  let nominal = corner_delay b Nominal in
  let slow3 = corner_delay b (Slow 3.0) in
  let global_slow3 = corner_delay b (Global_slow 3.0) in
  let delay =
    match Propagate.circuit_delay b.Build.graph ~forms:b.Build.forms with
    | Some f -> f
    | None -> failwith "Corners.pessimism: no reachable output"
  in
  let ssta_q9987 = Form.quantile delay 0.99865 in
  let margin_ratio =
    let corner_margin = slow3 -. nominal in
    let ssta_margin = ssta_q9987 -. nominal in
    if ssta_margin <= 0.0 then infinity else corner_margin /. ssta_margin
  in
  { nominal; slow3; global_slow3; ssta_q9987; margin_ratio }

let pp_pessimism ppf p =
  Format.fprintf ppf
    "@[<v>nominal:            %10.1f@,+3sigma corner:     %10.1f@,global-only \
     corner: %10.1f@,SSTA 99.87%%:        %10.1f@,corner margin / SSTA \
     margin: %.2fx@]"
    p.nominal p.slow3 p.global_slow3 p.ssta_q9987 p.margin_ratio
