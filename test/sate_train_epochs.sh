#!/bin/sh
# `sate train --epochs N` with N below 1 must stop with a usage error
# naming --epochs, before any sample is labelled: a non-zero exit that
# is not cmdliner's 125 ("internal error, uncaught exception").  The
# model path is never written, since training never starts.
# Usage: sate_train_epochs.sh PATH-TO-SATE
sate=$1
for n in 0 -3; do
  err=$("$sate" train --epochs="$n" --model ./no-such-dir/sate-model.bin 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 125 ]; then
    echo "--epochs $n: expected a usage error, got exit $status: $err" >&2
    exit 1
  fi
  case $err in
    *--epochs*) ;;
    *)
      echo "--epochs $n: stderr does not name --epochs: $err" >&2
      exit 1
      ;;
  esac
done
