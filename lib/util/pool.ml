type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable handles : unit Domain.t list;
  mutable n_workers : int;
  mutable stopped : bool;
}

(* Workers block on [nonempty] until a task arrives or the pool stops.  A
   stopped pool abandons queued tasks: the only queued tasks belong to an
   active [run_all], whose submitter drains the queue itself while waiting.
   Every queued task is a [run_all] wrap, which catches its thunk's
   exception, so a worker never dies of one. *)
let worker_loop t () =
  let rec next () =
    Mutex.lock t.lock;
    let rec await () =
      if t.stopped then None
      else if Queue.is_empty t.tasks then begin
        Condition.wait t.nonempty t.lock;
        await ()
      end
      else Some (Queue.pop t.tasks)
    in
    let task = await () in
    Mutex.unlock t.lock;
    match task with
    | None -> ()
    | Some f ->
      f ();
      next ()
  in
  next ()

let spawn_locked t k =
  t.stopped <- false;
  t.handles <- List.init k (fun _ -> Domain.spawn (worker_loop t)) @ t.handles;
  t.n_workers <- t.n_workers + k

let create ?workers () =
  let workers =
    match workers with
    | Some w -> max 0 w
    | None -> max 0 (min 8 (Domain.recommended_domain_count ()) - 1)
  in
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      tasks = Queue.create ();
      handles = [];
      n_workers = 0;
      stopped = false;
    }
  in
  if workers > 0 then begin
    Mutex.lock t.lock;
    spawn_locked t workers;
    Mutex.unlock t.lock
  end;
  t

let workers t = t.n_workers

let ensure_workers t n =
  Mutex.lock t.lock;
  let deficit = n - t.n_workers in
  if deficit > 0 then spawn_locked t deficit;
  Mutex.unlock t.lock

(* Completion of one [run_all] call.  Tasks may be executed by any thread
   (worker or a helping submitter), so the latch is the only thing tying a
   wrapped task back to its originating call. *)
type latch = {
  l_lock : Mutex.t;
  l_done : Condition.t;
  mutable l_pending : int;
  mutable l_exn : exn option;
}

let run_inline fns =
  let first_exn = ref None in
  List.iter
    (fun f -> try f () with e -> if !first_exn = None then first_exn := Some e)
    fns;
  match !first_exn with Some e -> raise e | None -> ()

let run_all t fns =
  match fns with
  | [] -> ()
  | [ f ] -> f ()
  | first :: rest ->
    if t.n_workers = 0 || t.stopped then run_inline fns
    else begin
      let latch =
        {
          l_lock = Mutex.create ();
          l_done = Condition.create ();
          l_pending = List.length fns;
          l_exn = None;
        }
      in
      let wrap f () =
        (try f ()
         with e ->
           Mutex.lock latch.l_lock;
           if latch.l_exn = None then latch.l_exn <- Some e;
           Mutex.unlock latch.l_lock);
        Mutex.lock latch.l_lock;
        latch.l_pending <- latch.l_pending - 1;
        if latch.l_pending = 0 then Condition.signal latch.l_done;
        Mutex.unlock latch.l_lock
      in
      Mutex.lock t.lock;
      List.iter (fun f -> Queue.push (wrap f) t.tasks) rest;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.lock;
      wrap first ();
      (* Help: execute queued tasks (ours or other calls') until our latch
         clears, then block.  A waiter has always drained the queue first, so
         every blocked thread is waiting on tasks running elsewhere — that is
         what makes nested submission deadlock-free. *)
      let rec help () =
        Mutex.lock latch.l_lock;
        let outstanding = latch.l_pending > 0 in
        Mutex.unlock latch.l_lock;
        if outstanding then begin
          Mutex.lock t.lock;
          let task = if Queue.is_empty t.tasks then None else Some (Queue.pop t.tasks) in
          Mutex.unlock t.lock;
          match task with
          | Some f ->
            f ();
            help ()
          | None ->
            Mutex.lock latch.l_lock;
            while latch.l_pending > 0 do
              Condition.wait latch.l_done latch.l_lock
            done;
            Mutex.unlock latch.l_lock
        end
      in
      help ();
      match latch.l_exn with Some e -> raise e | None -> ()
    end

let run_all_deadline t ~now ~deadline fns =
  let ran = Atomic.make 0 in
  (* The gate consults the clock at task *start*: tasks already running when
     the deadline passes complete normally, tasks not yet started are skipped
     (their thunk is never invoked).  A task that raises is not counted. *)
  let gated f () =
    if now () < deadline then begin
      f ();
      Atomic.incr ran
    end
  in
  run_all t (List.map gated fns);
  Atomic.get ran

let shutdown t =
  Mutex.lock t.lock;
  if t.stopped || t.n_workers = 0 then begin
    t.stopped <- true;
    Mutex.unlock t.lock
  end
  else begin
    t.stopped <- true;
    let handles = t.handles in
    t.handles <- [];
    t.n_workers <- 0;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    List.iter Domain.join handles
  end

let default_lock = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create () in
      default_pool := Some p;
      p
  in
  Mutex.unlock default_lock;
  p
