(* Open-loop load: requests fall due on a fixed schedule whatever the
   server is doing.  Whenever the server is free, every request already
   due is handed over as one group, the way the daemon drains its socket.
   Latency runs from the due time, so a stall is charged to every request
   queued behind it.  The clock is a parameter so the tests can drive the
   scheduler on a fake one. *)

type clock = { now : unit -> float; sleep_until : float -> unit }

let real_clock =
  {
    now = Unix.gettimeofday;
    sleep_until =
      (fun t ->
        let d = t -. Unix.gettimeofday () in
        if d > 0.0 then Unix.sleepf d);
  }

type result = {
  latency : float array;  (** per request: answered minus due *)
  wait : float array;  (** per request: its group's start minus due *)
  groups : (int * int) array;  (** first and last request of each group *)
  idle : float;  (** seconds the server waited for the next arrival *)
  late : float array;
      (** per group started after an idle wait: how late the generator
          woke up, start minus due *)
  backlog_end : int;
      (** requests due by the last arrival but answered after it: stays
          near one group on a server that keeps up, grows with a backlog *)
}

(* [run ~clock ~due serve] calls [serve ~start first last] for each group;
   [due] holds absolute times in ascending order. *)
let run ~clock ~due serve =
  let n = Array.length due in
  let latency = Array.make n 0.0 and wait = Array.make n 0.0 in
  let groups = ref [] and late = ref [] and idle = ref 0.0 in
  let i = ref 0 in
  while !i < n do
    let t = clock.now () in
    let woke = due.(!i) > t in
    if woke then begin
      clock.sleep_until due.(!i);
      let t' = clock.now () in
      Trace.add "bench.idle" ~start:t ~stop:t';
      idle := !idle +. (t' -. t)
    end;
    let start = clock.now () in
    if woke then late := (start -. due.(!i)) :: !late;
    let j = ref !i in
    while !j + 1 < n && due.(!j + 1) <= start do
      incr j
    done;
    serve ~start !i !j;
    let stop = clock.now () in
    for k = !i to !j do
      latency.(k) <- stop -. due.(k);
      wait.(k) <- start -. due.(k)
    done;
    groups := (!i, !j) :: !groups;
    i := !j + 1
  done;
  let backlog_end =
    if n = 0 then 0
    else
      let last = due.(n - 1) in
      let c = ref 0 in
      Array.iteri (fun k d -> if d +. latency.(k) > last then incr c) due;
      !c
  in
  {
    latency;
    wait;
    groups = Array.of_list (List.rev !groups);
    idle = !idle;
    late = Array.of_list (List.rev !late);
    backlog_end;
  }
