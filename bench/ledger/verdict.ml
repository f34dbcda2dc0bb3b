(* Parent-vs-change verdicts for one (workload, metric) row.

   Runs are paired by index (the pairs alternate which side ran first).
   A gain needs at least ten pairs, the change winning at least nine
   tenths of them (ties count for neither side), and a median gap wider
   than the parent's own interquartile range.  A change whose median is
   worse by more than the metric's bound is a regression.  When either
   side's spread exceeds the bound the row is unresolved, unless every
   change run reads better than every parent run.  A gain does not count
   when the change failed more ops than the parent or one of its runs
   failed an output check: such a row is refused instead. *)

type better = Lower | Higher
type t = Improved | Refused | Worse | Unresolved | Same | Unbounded

let to_string = function
  | Improved -> "improved"
  | Refused -> "refused"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Same -> "same"
  | Unbounded -> "-"

(* One side's runs of a workload: failed ops summed over the runs, and
   the number of runs that reported correct = false. *)
type failures = { failed : int; incorrect : int }

let gains_count ~parent ~change =
  change.failed <= parent.failed && change.incorrect = 0

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let min_pairs = 10

type row = {
  pairs : int;
  wins : int;
  parent_q : float * float * float;
  change_q : float * float * float;
  verdict : t;
}

(* Quartiles that tolerate a single run (all three are that value). *)
let quartiles a =
  if Array.length a >= 2 then Stats.quartiles a
  else
    let m = Stats.median a in
    (m, m, m)

let judge ?(gains_count = true) ~better ~bound ~parent ~change () =
  let pairs = min (Array.length parent) (Array.length change) in
  if pairs = 0 then invalid_arg "Verdict.judge: no runs";
  let beats a b = match better with Lower -> a < b | Higher -> a > b in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if beats change.(i) parent.(i) then incr wins
  done;
  let ((p1, pm, p3) as parent_q) = quartiles parent in
  let ((c1, cm, c3) as change_q) = quartiles change in
  let worse_share =
    (match better with Lower -> cm -. pm | Higher -> pm -. cm)
    /. Float.abs pm
  in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> beats c p) parent) change
  in
  let spread = Float.max ((p3 -. p1) /. Float.abs pm) ((c3 -. c1) /. Float.abs cm) in
  let verdict =
    if
      pairs >= min_pairs
      && !wins * 10 >= 9 * pairs
      && beats cm pm
      && Float.abs (cm -. pm) > p3 -. p1
    then if gains_count then Improved else Refused
    else
      match bound with
      | None -> Unbounded
      | Some b ->
          if worse_share > b then Worse
          else if spread > b && not all_better then Unresolved
          else Same
  in
  { pairs; wins = !wins; parent_q; change_q; verdict }
