(* Lifecycle of the program processes a run starts: spawn into the
   run's private directory, wait for readiness (banner line, then the
   [health] verb), stop with [shutdown], reap and check exit codes.
   Every spawned pid is registered so an abort kills whatever is still
   running. *)

module Sink = Bi_engine.Sink
module Client = Bi_serve.Client
module Protocol = Bi_serve.Protocol

type proc = {
  pid : int;
  name : string;
  socket : string;  (* relative to the run directory, always with a '/' *)
  banner : in_channel;  (* the child's stdout; held open until reaped *)
}

let live : proc list ref = ref []

let kill_all () =
  List.iter
    (fun p ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
      close_in_noerr p.banner)
    !live;
  live := []

let spawn ~bi ~name ~socket args =
  let r, w = Unix.pipe ~cloexec:true () in
  let log = Unix.openfile (name ^ ".log") [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close log)
      (fun () -> Unix.create_process bi (Array.of_list (bi :: args)) Unix.stdin w log)
  in
  let p = { pid; name; socket; banner = Unix.in_channel_of_descr r } in
  live := p :: !live;
  p

(* One control request on its own connection; anything but an ok reply
   aborts the run. *)
let request_json socket json =
  let c = Client.connect_unix ~timeout_s:30. socket in
  let reply =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> Client.raw_request c (Sink.to_string json))
  in
  match reply with
  | Error f -> failwith (socket ^ ": " ^ Client.failure_to_string f)
  | Ok line -> (
    match Sink.of_string line with
    | Ok j when Protocol.is_ok j -> j
    | Ok _ -> failwith (socket ^ ": not ok: " ^ line)
    | Error e -> failwith (socket ^ ": " ^ e))

(* Ready means the banner the program prints once its listener accepts,
   then a successful [health] exchange — no sleeps. *)
let await_ready p =
  (match input_line p.banner with
  | _ -> ()
  | exception End_of_file -> failwith (p.name ^ " exited before it was ready"));
  request_json p.socket Protocol.health_request

let stats p = request_json p.socket Protocol.stats_request

let shutdown p =
  ignore (request_json p.socket Protocol.shutdown_request);
  let _, status = Unix.waitpid [] p.pid in
  live := List.filter (fun q -> q.pid <> p.pid) !live;
  close_in_noerr p.banner;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "%s exited with code %d" p.name c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    failwith (Printf.sprintf "%s stopped by signal %d" p.name s)

(* --- /proc ------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cpu_ticks p =
  match Stats.cpu_ticks_of_stat (read_file (Printf.sprintf "/proc/%d/stat" p.pid)) with
  | Some t -> t
  | None -> failwith ("cannot parse /proc stat of " ^ p.name)

let vm_hwm_kb p =
  match Stats.vm_hwm_kb_of_status (read_file (Printf.sprintf "/proc/%d/status" p.pid)) with
  | Some kb -> kb
  | None -> failwith ("no VmHWM for " ^ p.name)
