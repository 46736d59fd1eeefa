#!/bin/sh
# A --model path that is missing or not a model file must stop
# `sate eval` with a usage error naming the path: a non-zero exit that
# is not cmdliner's 125 ("internal error, uncaught exception").  This
# script itself serves as the file that is not a model.
# Usage: sate_model_file.sh PATH-TO-SATE
sate=$1
for path in "$0" ./no-such-dir/sate-model.bin; do
  err=$("$sate" eval --model "$path" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 125 ]; then
    echo "--model $path: expected a usage error, got exit $status: $err" >&2
    exit 1
  fi
  case $err in
    *"$path"*) ;;
    *)
      echo "--model $path: stderr does not name the file: $err" >&2
      exit 1
      ;;
  esac
done
