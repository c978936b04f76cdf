(** A blocking client for the analysis server.

    Opens one connection and issues line-delimited JSON requests
    (build them with {!Protocol}); each {!request} writes one line and
    blocks for the one-line response.

    Failures are classified, and the client tracks its own health: any
    I/O or framing failure marks the connection broken, after which a
    plain {!request} refuses to reuse it ({!failure.Closed}) instead of
    silently writing into a dead socket.  A {!request} with [~retry]
    reconnects to the remembered address and retries with capped
    exponential backoff and deterministic jitter; [overloaded]
    responses are retried too, honouring the server's
    [retry_after_ms] hint. *)

type t

type addr =
  | Unix_path of string  (** A Unix-domain socket path. *)
  | Tcp_port of int  (** A loopback TCP port. *)
  | Unattached
      (** No address (a client made with {!of_channels}); cannot
          reconnect. *)

type failure =
  | Io of string
      (** The transport failed: connect/read/write error, connection
          reset, read timeout, or a response line torn mid-write. *)
  | Malformed of string
      (** The connection stayed up but the response line was not JSON —
          the server is speaking a different protocol. *)
  | Closed
      (** The client was {!close}d, or is broken and was called without
          [~retry] (or has no address to reconnect to). *)

val failure_to_string : failure -> string

type retry = {
  attempts : int;  (** Total tries, including the first. *)
  base_delay_ms : int;  (** Backoff starts here and doubles. *)
  max_delay_ms : int;  (** Per-wait cap. *)
  seed : int option;
      (** Jitter stream seed ({!Chaos.unit_float}).  [None] — the
          default — derives a seed from the pid, a per-process
          connection counter and the peer address, so independent
          clients that lose the same server spread their retries out
          instead of replaying one shared jitter sequence in lockstep.
          Pass [Some s] for a reproducible schedule in tests. *)
}

val default_retry : retry
(** 5 attempts, 25 ms base, 2 s cap, derived (per-connection) seed. *)

val backoff_wait_ms :
  base_delay_ms:int ->
  max_delay_ms:int ->
  seed:int ->
  wait_index:int ->
  attempt:int ->
  hint_ms:int option ->
  int
(** The pure backoff schedule: wait [attempt] is
    [min max_delay_ms (base_delay_ms * 2^attempt)] scaled into
    [[1/2, 1)] by the [(seed, wait_index)] jitter stream, raised to
    [hint_ms] when the server's [retry_after_ms] hint is larger, and
    never below 1 ms.  Without a hint the result lies in
    [[1, max_delay_ms]]; a hint acts as a floor and may exceed the
    cap.  Exposed for the qcheck laws. *)

val connect_unix : ?timeout_s:float -> string -> t
(** Connects to a Unix-domain socket path.  With [~timeout_s], reads
    that block longer fail as {!failure.Io} (socket receive timeout)
    instead of hanging forever.
    @raise Unix.Unix_error when the server is not listening. *)

val connect_tcp : ?timeout_s:float -> int -> t
(** Connects to the loopback TCP port. *)

val make : ?timeout_s:float -> addr -> t
(** Connects to an {!addr} — the general form of {!connect_unix} /
    {!connect_tcp} (the router resolves member strings to addresses).
    @raise Invalid_argument on {!addr.Unattached}.
    @raise Unix.Unix_error when the server is not listening. *)

val of_channels : in_channel -> out_channel -> t
(** Wraps an existing connection.  Such a client has no address, so it
    cannot reconnect: once broken it only answers {!failure.Closed}. *)

val request :
  ?retry:retry -> t -> Bi_engine.Sink.json -> (Bi_engine.Sink.json, failure) result
(** Sends one request, returns the parsed response.  Check
    {!Protocol.is_ok} / {!Protocol.response_code} for the server-level
    verdict.  Without [~retry], one attempt on the current connection;
    with it, transport failures and [overloaded] responses trigger
    reconnect-and-retry until the attempt budget runs out (the last
    outcome is returned, so a final [overloaded] response surfaces as
    such). *)

val request_line : t -> string -> (Bi_engine.Sink.json, failure) result
(** {!request} without the encoding or the retry: sends [line] verbatim
    (it must hold no newline) and parses the response, with the same
    failure classification — the router forwards client lines this way
    instead of re-encoding them. *)

val hung_up : t -> bool
(** True when the last request on this client failed because the peer
    closed or reset the connection without replying: EOF before the
    response, or EPIPE / ECONNRESET.  A read timeout, a torn or
    malformed response, and a success are all [false].  A caller that
    reused an idle connection may retry such a failure once on a fresh
    connection — the server hung up on an old connection (restart,
    idle timeout), which says nothing about the next one. *)

val raw_request : t -> string -> (string, failure) result
(** Sends a raw line (no JSON validation — the fuzz and soak harnesses
    use this to probe with garbage) and returns the raw response line.
    Never retries. *)

val close : t -> unit
(** Idempotent. *)
