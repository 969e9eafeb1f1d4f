(* The process-wide domain pool, with work-stealing index claims.

   One job at a time (the [submit] mutex): every use in this codebase is a
   fork-join loop whose caller has nothing else to do, so the caller drains
   chunks alongside the workers instead of queueing jobs. Indices are claimed
   from an [Atomic] counter — which domain gets which index is scheduling
   noise, but every index runs exactly once and writes only its own slot, so
   results are position-deterministic.

   Workers never touch a job after the caller returned: the caller zeroes the
   join [slots] and waits for [active] to drain before clearing the job slot,
   all under the pool mutex, so a late-waking worker finds either the live
   job (and joins it, making [active] non-zero) or no job at all. *)

let max_domains = 64
let recommended () = Domain.recommended_domain_count ()
let clamp domains = if domains < 1 then 1 else min domains max_domains

type job = {
  chunks : int;
  next : int Atomic.t;  (* next unclaimed chunk *)
  cancelled : bool Atomic.t;  (* a body raised: skip unclaimed chunks *)
  body : int -> unit;
  mutable slots : int;  (* workers still allowed to join (pool mutex) *)
  mutable active : int;  (* workers currently draining (pool mutex) *)
  mutable failed : exn option;  (* first exception, re-raised by the caller *)
}

type t = {
  m : Mutex.t;
  work : Condition.t;  (* a job was posted *)
  idle : Condition.t;  (* a worker left the job *)
  submit : Mutex.t;  (* serializes jobs (and growth) across caller threads *)
  mutable job : job option;
  mutable epoch : int;  (* bumped per job so sleeping workers spot new work *)
  mutable workers : int;
}

(* True while this domain is draining a job: a nested [parallel_for] from a
   job body runs inline instead of deadlocking on [submit]. *)
let in_job : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let drain pool j =
  let rec go () =
    if not (Atomic.get j.cancelled) then begin
      let i = Atomic.fetch_and_add j.next 1 in
      if i < j.chunks then begin
        (try j.body i
         with e ->
           Atomic.set j.cancelled true;
           Mutex.lock pool.m;
           if j.failed = None then j.failed <- Some e;
           Mutex.unlock pool.m);
        go ()
      end
    end
  in
  let prev = Domain.DLS.get in_job in
  Domain.DLS.set in_job true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_job prev) go

let worker_loop pool =
  let seen = ref 0 in
  let rec next () =
    Mutex.lock pool.m;
    let rec find () =
      match pool.job with
      | Some j when pool.epoch <> !seen ->
          seen := pool.epoch;
          if j.slots > 0 then begin
            j.slots <- j.slots - 1;
            j.active <- j.active + 1;
            Mutex.unlock pool.m;
            j
          end
          else begin
            Condition.wait pool.work pool.m;
            find ()
          end
      | _ ->
          Condition.wait pool.work pool.m;
          find ()
    in
    let j = find () in
    drain pool j;
    Mutex.lock pool.m;
    j.active <- j.active - 1;
    if j.active = 0 then Condition.broadcast pool.idle;
    Mutex.unlock pool.m;
    next ()
  in
  next ()

(* Spawns no domain: workers start the first time a job wants them, and
   idle ones block on [work] and cost nothing. *)
let pool =
  {
    m = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    submit = Mutex.create ();
    job = None;
    epoch = 0;
    workers = 0;
  }

(* Grow-only: workers are spawned the first time a job wants them and then
   reused for the life of the process (exiting with idle workers is safe).
   A freshly spawned worker blocks on [pool.m] until the critical section
   ends, then sleeps on [work]. *)
let ensure ~workers =
  Mutex.lock pool.m;
  for _ = pool.workers + 1 to workers do
    ignore (Domain.spawn (fun () -> worker_loop pool) : unit Domain.t);
    pool.workers <- pool.workers + 1
  done;
  Mutex.unlock pool.m

let parallel_for ~domains ~n body =
  let inline () =
    for i = 0 to n - 1 do
      body i
    done
  in
  let d = clamp domains in
  if n <= 0 then ()
  else if d <= 1 || n = 1 || Domain.DLS.get in_job then inline ()
  else begin
    (* No point waking more workers than there are indices beyond the
       caller's first claim. *)
    let want = min (d - 1) (n - 1) in
    ensure ~workers:want;
    Mutex.lock pool.submit;
    let j =
      {
        chunks = n;
        next = Atomic.make 0;
        cancelled = Atomic.make false;
        body;
        slots = want;
        active = 0;
        failed = None;
      }
    in
    Mutex.lock pool.m;
    pool.job <- Some j;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.m;
    drain pool j;
    Mutex.lock pool.m;
    j.slots <- 0;
    while j.active > 0 do
      Condition.wait pool.idle pool.m
    done;
    pool.job <- None;
    Mutex.unlock pool.m;
    Mutex.unlock pool.submit;
    match j.failed with Some e -> raise e | None -> ()
  end

let for_chunks ~domains ~chunk ~n body =
  if chunk < 1 then invalid_arg "Pool.for_chunks: chunk < 1";
  if n < 0 then invalid_arg "Pool.for_chunks: n < 0";
  (* One domain or one shard: a plain loop, with no closure to allocate. *)
  if clamp domains <= 1 || n <= chunk then
    for i = 0 to n - 1 do
      body i
    done
  else begin
    let groups = (n + chunk - 1) / chunk in
    parallel_for ~domains ~n:groups (fun g ->
        let lo = g * chunk and hi = min n ((g + 1) * chunk) in
        for i = lo to hi - 1 do
          body i
        done)
  end

let map ~domains ~n f =
  let slots = Array.make n None in
  parallel_for ~domains ~n (fun i -> slots.(i) <- Some (f i));
  Array.map (function Some v -> v | None -> assert false) slots
