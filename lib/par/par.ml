(* Fixed-size domain pool for coarse-grained data parallelism.

   Worker domains are spawned once per pool and parked on a condition
   variable; each submitted task is a fixed number of chunks that
   workers (and the submitting domain itself) claim via an atomic
   counter.  Chunk boundaries are a pure function of (n, chunks), and
   every chunk writes disjoint output slots, so kernels built on this
   pool produce bit-identical results for any pool size.

   Nested submissions (a parallel kernel called from inside a worker,
   e.g. a matmul inside a per-method fan-out) run sequentially inline:
   a domain-local flag marks pool context and short-circuits to the
   sequential fallback, which is also taken when the pool has size 1
   (`SATE_DOMAINS=1`). *)

type task = {
  chunks : int;
  next : int Atomic.t; (* next chunk index to claim *)
  finished : int Atomic.t; (* chunks fully executed *)
  run : int -> unit;
  task_mu : Mutex.t;
  task_cv : Condition.t; (* signalled when the last chunk lands *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
}

type t = {
  size : int; (* worker count, including the submitting domain *)
  mutable domains : unit Domain.t array; (* the size - 1 spawned domains *)
  job_mu : Mutex.t;
  job_cv : Condition.t;
  mutable job : task option;
  mutable generation : int; (* bumped per submission *)
  mutable stop : bool;
}

(* Domain-local marker: true inside pool workers and while the
   submitting domain executes its own share of chunks. *)
let in_pool_key = Domain.DLS.new_key (fun () -> false)

let in_pool () = Domain.DLS.get in_pool_key

let exec_chunks task =
  let rec go () =
    let c = Atomic.fetch_and_add task.next 1 in
    if c < task.chunks then begin
      (try task.run c
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock task.task_mu;
         if task.failed = None then task.failed <- Some (e, bt);
         Mutex.unlock task.task_mu);
      let done_now = 1 + Atomic.fetch_and_add task.finished 1 in
      if done_now = task.chunks then begin
        Mutex.lock task.task_mu;
        Condition.broadcast task.task_cv;
        Mutex.unlock task.task_mu
      end;
      go ()
    end
  in
  go ()

let worker pool =
  Domain.DLS.set in_pool_key true;
  let seen = ref pool.generation in
  let rec loop () =
    Mutex.lock pool.job_mu;
    while (not pool.stop) && pool.generation = !seen do
      Condition.wait pool.job_cv pool.job_mu
    done;
    if pool.stop then Mutex.unlock pool.job_mu
    else begin
      seen := pool.generation;
      let job = pool.job in
      Mutex.unlock pool.job_mu;
      (match job with Some task -> exec_chunks task | None -> ());
      loop ()
    end
  in
  loop ()

let create domains =
  let size = max 1 domains in
  let pool =
    { size;
      domains = [||];
      job_mu = Mutex.create ();
      job_cv = Condition.create ();
      job = None;
      generation = 0;
      stop = false }
  in
  pool.domains <-
    Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.job_mu;
  pool.stop <- true;
  Condition.broadcast pool.job_cv;
  Mutex.unlock pool.job_mu;
  Array.iter Domain.join pool.domains

(* Submit a task and help execute it; re-raises the first worker
   exception after every chunk has run, leaving the pool reusable. *)
let run_task pool task =
  Mutex.lock pool.job_mu;
  pool.job <- Some task;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.job_cv;
  Mutex.unlock pool.job_mu;
  Domain.DLS.set in_pool_key true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set in_pool_key false)
    (fun () -> exec_chunks task);
  Mutex.lock task.task_mu;
  while Atomic.get task.finished < task.chunks do
    Condition.wait task.task_cv task.task_mu
  done;
  Mutex.unlock task.task_mu;
  Mutex.lock pool.job_mu;
  pool.job <- None;
  Mutex.unlock pool.job_mu;
  match task.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Ambient pool.                                                       *)

let default_size () =
  match Sys.getenv_opt "SATE_DOMAINS" with
  | None -> min 8 (max 1 (Domain.recommended_domain_count ()))
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "SATE_DOMAINS=%s: expected a positive integer" s))

let global : t option ref = ref None

let at_exit_registered = ref false

let get () =
  match !global with
  | Some pool -> pool
  | None ->
      let pool = create (default_size ()) in
      global := Some pool;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        Stdlib.at_exit (fun () ->
            match !global with
            | Some p ->
                global := None;
                shutdown p
            | None -> ())
      end;
      pool

let domains () = (get ()).size

let with_domains n f =
  let previous = !global in
  let temp = create n in
  global := Some temp;
  Fun.protect
    ~finally:(fun () ->
      global := previous;
      shutdown temp)
    f

(* ------------------------------------------------------------------ *)
(* Deterministic chunked iteration.                                    *)

let chunk_bounds n chunks c =
  let q = n / chunks and r = n mod chunks in
  let lo = (c * q) + min c r in
  let hi = lo + q + if c < r then 1 else 0 in
  (lo, hi)

let range_iter ?chunks n f =
  if n > 0 then begin
    let pool = get () in
    if pool.size <= 1 || in_pool () then f 0 n
    else begin
      let chunks =
        match chunks with
        | Some c -> max 1 (min c n)
        | None -> min n (4 * pool.size)
      in
      if chunks <= 1 then f 0 n
      else
        run_task pool
          { chunks;
            next = Atomic.make 0;
            finished = Atomic.make 0;
            run = (fun c -> let lo, hi = chunk_bounds n chunks c in f lo hi);
            task_mu = Mutex.create ();
            task_cv = Condition.create ();
            failed = None }
    end
  end

let map_array f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    (* Element 0 seeds the result array on the calling domain; the
       remaining slots are filled by disjoint chunk writers. *)
    let out = Array.make n (f a.(0)) in
    range_iter (n - 1) (fun lo hi ->
        for i = lo + 1 to hi do
          out.(i) <- f a.(i)
        done);
    out
  end

let both f g =
  let pool = get () in
  if pool.size <= 1 || in_pool () then
    let a = f () in
    let b = g () in
    (a, b)
  else begin
    let ra = ref None and rb = ref None in
    run_task pool
      { chunks = 2;
        next = Atomic.make 0;
        finished = Atomic.make 0;
        run = (fun c -> if c = 0 then ra := Some (f ()) else rb := Some (g ()));
        task_mu = Mutex.create ();
        task_cv = Condition.create ();
        failed = None };
    match (!ra, !rb) with
    | Some a, Some b -> (a, b)
    | _ -> assert false (* run_task re-raises before reaching here *)
  end
