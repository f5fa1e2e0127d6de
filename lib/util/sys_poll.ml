external poll_raw :
  Unix.file_descr array -> int array -> int array -> int -> int
  = "qr_util_poll"

let pollin = 1
let pollout = 2
let pollerr = 4

let poll ~fds ~events ~revents ~timeout_ms =
  let n = Array.length fds in
  if Array.length events <> n || Array.length revents <> n then
    invalid_arg "Sys_poll.poll: array lengths differ";
  match poll_raw fds events revents timeout_ms with
  | -1 -> raise (Unix.Unix_error (Unix.EINTR, "poll", ""))
  | -2 -> failwith "Sys_poll.poll: poll(2) failed"
  | r -> r
