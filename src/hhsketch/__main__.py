from .bench import main
raise SystemExit(main())
